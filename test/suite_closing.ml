open Testlib

(* Closing gaps: transformations under random inputs, report plumbing. *)

let transform_props =
  [
    qcheck ~count:30 "distribute-partitions-ops-and-preserves-semantics" gen_loop_seed
      (fun seed ->
        let loop = loop_of_seed seed in
        let pieces = Ir.Distribute.split loop in
        let op_total = List.fold_left (fun acc p -> acc + Ir.Loop.size p) 0 pieces in
        let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
        seed_state sa loop;
        seed_state sb loop;
        Ir.Eval.run_loop sa ~trips:4 loop;
        List.iter (fun p -> Ir.Eval.run_loop sb ~trips:4 p) pieces;
        op_total = Ir.Loop.size loop && mem_equal sa sb);
    qcheck ~count:30 "lower-addr-preserves-semantics-randomly" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        match Ir.Lower_addr.loop loop with
        | exception Invalid_argument _ -> true (* indexed input: out of scope *)
        | lowered, inits ->
            let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
            seed_state sa loop;
            seed_state sb loop;
            List.iter (fun (iv, v) -> Ir.Eval.set_reg sb iv (Ir.Eval.I v)) inits;
            Ir.Eval.run_loop sa ~trips:4 loop;
            Ir.Eval.run_loop sb ~trips:4 lowered;
            mem_equal sa sb);
    qcheck ~count:20 "superblock-merge-preserves-size-and-edges-valid"
      (QCheck2.Gen.int_range 0 40)
      (fun idx ->
        let fn = Workload.Funcgen.generate ~index:idx () in
        let merged = Ir.Superblock.merge_chains fn in
        Ir.Func.size merged = Ir.Func.size fn
        && Ir.Superblock.chain_count merged = 0
        && List.for_all
             (fun (a, b) ->
               (try ignore (Ir.Func.block merged a); true with Not_found -> false)
               && try ignore (Ir.Func.block merged b); true with Not_found -> false)
             (Ir.Func.edges merged));
    qcheck ~count:25 "shift-iterations-random" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let k = 1 + (seed mod 4) in
        let shifted = Ir.Unroll.shift_iterations ~by:k loop in
        let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
        seed_state sa loop;
        seed_state sb loop;
        Ir.Eval.run_loop sa ~trips:(k + 3) loop;
        Ir.Eval.run_loop sb ~trips:k loop;
        Ir.Eval.run_loop sb ~trips:3 shifted;
        mem_equal sa sb);
  ]

let report_cases =
  [
    case "histogram-on-empty-run" (fun () ->
        let cfg = Core.Experiment.config_for ~clusters:2 ~copy_model:Mach.Machine.Embedded in
        let empty =
          { Core.Experiment.config = cfg; metrics = []; failures = []; cache_hits = 0 }
        in
        let fig = Core.Report.figure_histogram empty empty ~title:"t" in
        check Alcotest.bool "renders" true (String.length (Util.Table.render fig) > 0));
    case "failures-summary-lists-errors" (fun () ->
        let cfg = Core.Experiment.config_for ~clusters:2 ~copy_model:Mach.Machine.Embedded in
        let run =
          { Core.Experiment.config = cfg; metrics = []; failures =
              [
                ( "l1",
                  Verify.Stage_error.make ~stage:Verify.Stage_error.Clustered_schedule
                    ~subject:"l1" "boom" );
              ]; cache_hits = 0 }
        in
        let s = Core.Report.failures_summary [ run ] in
        check Alcotest.bool "mentions loop" true (contains s "l1");
        check Alcotest.bool "mentions error" true (contains s "boom"));
    case "csv-escaping-free-names" (fun () ->
        (* suite loop names contain no commas, keeping the CSV trivial *)
        List.iter
          (fun loop ->
            check Alcotest.bool (Ir.Loop.name loop) false
              (String.contains (Ir.Loop.name loop) ','))
          (Workload.Suite.loops ()));
    case "experiment-ideal-ipc-matches-metrics" (fun () ->
        (* the Table 1 "Ideal" entry equals the mean of per-loop ideal IPCs *)
        let loops = sample_loops ~n:6 () in
        let cfg = Core.Experiment.config_for ~clusters:4 ~copy_model:Mach.Machine.Embedded in
        let run = Core.Experiment.run_config ~loops cfg in
        let from_metrics = Core.Metrics.mean_ipc_ideal run.Core.Experiment.metrics in
        let direct = Core.Experiment.ideal_ipc ~loops () in
        check (Alcotest.float 1e-6) "equal" direct from_metrics);
  ]

(* Mutation testing of the validators: corrupting a valid kernel must be
   caught by the static checker or the simulator (a checker that accepts
   everything would pass every positive test). *)
let mutation_props =
  [
    qcheck ~count:40 "check-catches-dependence-mutations" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> false
        | Some o ->
            let k = o.Sched.Modulo.kernel in
            let g = Ddg.Graph.graph ddg in
            (* pull one dependence-constrained op one cycle earlier *)
            let victim =
              List.find_opt
                (fun (p : Sched.Schedule.placement) ->
                  Graphlib.Digraph.preds g (Ir.Op.id p.op)
                  |> List.exists (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
                         Ddg.Dep.distance e.label = 0
                         && (try
                               Sched.Kernel.cycle_of k (Ir.Op.id p.op)
                               - Sched.Kernel.cycle_of k e.src
                               = Ddg.Dep.latency e.label
                             with Not_found -> false)))
                (Sched.Kernel.placements k)
            in
            (match victim with
            | None -> true (* nothing tightly constrained: skip *)
            | Some v ->
                let mutated =
                  List.map
                    (fun (p : Sched.Schedule.placement) ->
                      if Ir.Op.id p.op = Ir.Op.id v.op then
                        { p with Sched.Schedule.cycle = max 0 (p.cycle - 1) }
                      else p)
                    (Sched.Kernel.placements k)
                in
                let k' = Sched.Kernel.make ~ii:(Sched.Kernel.ii k) mutated in
                Sched.Check.kernel ~machine:ideal16 ~cluster_of:all_zero_clusters ~ddg k'
                <> Ok ()));
    qcheck ~count:30 "check-catches-resource-mutations" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        if Ir.Loop.size loop < 2 then true
        else begin
          let ddg = Ddg.Graph.of_loop loop in
          (* schedule on a 1-wide machine, then fold two ops into one
             cycle: the single FU must be oversubscribed *)
          let narrow = Mach.Machine.ideal ~width:1 () in
          match Sched.Modulo.ideal ~machine:narrow ddg with
          | None -> false
          | Some o -> (
              let k = o.Sched.Modulo.kernel in
              match Sched.Kernel.placements k with
              | (a : Sched.Schedule.placement) :: b :: rest ->
                  let mutated = { b with Sched.Schedule.cycle = a.cycle } :: a :: rest in
                  let k' = Sched.Kernel.make ~ii:(Sched.Kernel.ii k) mutated in
                  Sched.Check.kernel ~machine:narrow ~cluster_of:all_zero_clusters ~ddg k'
                  <> Ok ()
              | _ -> false)
        end);
  ]

let suite =
  [
    ("closing.transforms", transform_props);
    ("closing.report", report_cases);
    ("closing.mutation", mutation_props);
  ]
