(* Studies beyond the paper's evaluation, marked "(ours)": partitioner
   ablation, whole-function partitioning, scheduler, copy-latency,
   register, addressing, functional-unit and distribution comparisons.
   The paper's own Tables 1-2 and Figures 5-7 come from `rbp report`.

   Usage:
     bench/main.exe              -- every study
     bench/main.exe ablation     -- partitioner/weight ablation
     bench/main.exe wholeprog|schedulers|latency|registers|lowered
                    |specialized|distribute *)

let section title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')

let ablation ?(n = 64) () =
  section "Ablation (ours): partitioner and weight-term comparison, 4x4 machine";
  let loops = Workload.Suite.loops ~n () in
  let config = Core.Experiment.config_for ~clusters:4 ~copy_model:Mach.Machine.Embedded in
  let t =
    Util.Table.create ~title:"Mean degradation (normalized, 100 = ideal)"
      ~header:[ "Partitioner"; "Arith mean"; "Harmonic"; "No-degradation %" ]
  in
  let entry label partitioner =
    let run = Core.Experiment.run_config ~partitioner ~loops config in
    Util.Table.add_row t
      [
        label;
        Util.Table.cell_float ~decimals:1 (Core.Metrics.arithmetic_mean_degradation run.metrics);
        Util.Table.cell_float ~decimals:1 (Core.Metrics.harmonic_mean_degradation run.metrics);
        Util.Table.cell_float ~decimals:1 (Core.Metrics.pct_no_degradation run.metrics);
      ]
  in
  entry "greedy (paper)" (Partition.Driver.Greedy Rcg.Weights.default);
  entry "greedy, no repulsion" (Partition.Driver.Greedy Rcg.Weights.no_repulsion);
  entry "greedy, flat weights" (Partition.Driver.Greedy Rcg.Weights.flat);
  entry "greedy + iterative refinement" (Partition.Refine.partitioner Rcg.Weights.default);
  entry "BUG (Ellis)" Partition.Driver.Bug;
  entry "UAS (Ozer et al.)" Partition.Driver.Uas;
  entry "NE-style (recurrence-first)"
    (Partition.Driver.Custom (fun machine ddg _ -> Partition.Ne.partition ~machine ddg));
  (* Off-line stochastic tuning (Section 7 future work): train on a small
     disjoint sample, evaluate on the ablation loops. *)
  let train = Workload.Suite.loops ~seed:77 ~n:16 () in
  let tuned = Core.Tune.hill_climb ~budget:15 ~machine:config.Core.Experiment.machine
      ~loops:train ()
  in
  entry "greedy, tuned weights" (Partition.Driver.Greedy tuned.Core.Tune.weights);
  Util.Table.print t;
  Printf.printf
    "(tuned on %d held-out loops, %d evaluations, training score %.1f)\n"
    (List.length train) tuned.Core.Tune.evaluations tuned.Core.Tune.score

let wholeprog ?(n = 40) () =
  section "Whole-function partitioning (Hiser et al. 1999 companion experiment)";
  let fns = Workload.Funcgen.suite ~n () in
  let t =
    Util.Table.create
      ~title:
        "Mean whole-function degradation, frequency-weighted cycles (paper [16]: ~11% on 4 \
         banks)"
      ~header:[ "Machine"; "Arith mean"; "Copies/function" ]
  in
  List.iter
    (fun clusters ->
      let machine =
        Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded
      in
      let degs = ref [] and copies = ref 0 and count = ref 0 in
      List.iter
        (fun fn ->
          match Partition.Func_driver.pipeline ~machine fn with
          | Ok r ->
              degs := r.Partition.Func_driver.degradation :: !degs;
              copies := !copies + r.Partition.Func_driver.n_copies;
              incr count
          | Error _ -> ())
        fns;
      Util.Table.add_row t
        [
          machine.Mach.Machine.name;
          Util.Table.cell_float ~decimals:1 (Util.Stats.mean !degs);
          Util.Table.cell_float ~decimals:1 (float_of_int !copies /. float_of_int (max 1 !count));
        ])
    [ 2; 4; 8 ];
  Util.Table.print t

let schedulers ?(n = 120) () =
  section "Scheduler comparison (ours): Rau IMS vs Swing modulo scheduling";
  (* Section 6.3 lists the scheduler difference (Rau vs Swing) among the
     reasons the two studies diverge; this quantifies it on our suite:
     achieved II and MaxLive register requirements on the ideal machine. *)
  let loops = Workload.Suite.loops ~n () in
  let machine = Mach.Machine.paper_ideal in
  let rau_ii = ref 0 and swing_ii = ref 0 in
  let rau_ml = ref 0 and swing_ml = ref 0 in
  let rau_regs = ref 0 and swing_regs = ref 0 in
  let same_ii = ref 0 and swing_better = ref 0 and rau_better = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun loop ->
      let ddg = Ddg.Graph.of_loop loop in
      match (Sched.Modulo.ideal ~machine ddg, Sched.Swing.ideal ~machine ddg) with
      | Some rau, Some swing ->
          incr compared;
          rau_ii := !rau_ii + rau.Sched.Modulo.ii;
          swing_ii := !swing_ii + swing.Sched.Modulo.ii;
          if rau.Sched.Modulo.ii = swing.Sched.Modulo.ii then begin
            incr same_ii;
            let mr = Sched.Pressure.max_live ~kernel:rau.Sched.Modulo.kernel ~loop in
            let ms = Sched.Pressure.max_live ~kernel:swing.Sched.Modulo.kernel ~loop in
            rau_ml := !rau_ml + mr;
            swing_ml := !swing_ml + ms;
            let regs kernel =
              (Regalloc.Kernel_alloc.requirements ~kernel ~loop ~banks:1
                 ~bank_of:(fun _ -> 0)).Regalloc.Kernel_alloc.total
            in
            rau_regs := !rau_regs + regs rau.Sched.Modulo.kernel;
            swing_regs := !swing_regs + regs swing.Sched.Modulo.kernel;
            if ms < mr then incr swing_better else if mr < ms then incr rau_better
          end
      | _ -> ())
    loops;
  let t =
    Util.Table.create ~title:(Printf.sprintf "Ideal 16-wide pipelines over %d loops" !compared)
      ~header:[ "Metric"; "Rau IMS"; "Swing" ]
  in
  let fcmp v = Util.Table.cell_float ~decimals:2 v in
  Util.Table.add_row t
    [ "mean achieved II";
      fcmp (float_of_int !rau_ii /. float_of_int !compared);
      fcmp (float_of_int !swing_ii /. float_of_int !compared) ];
  Util.Table.add_row t
    [ Printf.sprintf "mean MaxLive (on %d equal-II loops)" !same_ii;
      fcmp (float_of_int !rau_ml /. float_of_int (max 1 !same_ii));
      fcmp (float_of_int !swing_ml /. float_of_int (max 1 !same_ii)) ];
  Util.Table.add_row t
    [ "mean registers needed (MVE + cyclic colouring)";
      fcmp (float_of_int !rau_regs /. float_of_int (max 1 !same_ii));
      fcmp (float_of_int !swing_regs /. float_of_int (max 1 !same_ii)) ];
  Util.Table.print t;
  Printf.printf "equal II on %d/%d loops; MaxLive: swing better on %d, Rau better on %d\n"
    !same_ii !compared !swing_better !rau_better

let latency_sweep ?(n = 64) () =
  section "Copy-latency sensitivity (ours): Section 6.3's latency conjecture";
  (* The paper blames part of the gap to Nystrom & Eichenberger on copy
     latency: "Our longer latency times for copies may have had a
     significant effect on the number of loops that we could schedule
     without degradation. We used latency of 2 cycles for integer copies
     and 3 for floating point values, while [they] used latency of 1".
     Sweep the copy latency with everything else fixed. *)
  let loops = Workload.Suite.loops ~n () in
  let t =
    Util.Table.create ~title:"4x4 embedded, 64 loops, copy latency swept"
      ~header:[ "Copy latency (int/float)"; "Arith mean"; "No-degradation %" ]
  in
  List.iter
    (fun (li, lf) ->
      let latency =
        Mach.Latency.override Mach.Latency.paper
          [ (Mach.Opcode.Copy, Mach.Rclass.Int, li); (Mach.Opcode.Copy, Mach.Rclass.Float, lf) ]
      in
      let machine =
        Mach.Machine.make ~latency ~clusters:4 ~fus_per_cluster:4
          ~copy_model:Mach.Machine.Embedded ()
      in
      let metrics =
        List.filter_map
          (fun loop ->
            match Partition.Driver.pipeline ~machine loop with
            | Ok r -> Some (Core.Metrics.of_result r)
            | Error _ -> None)
          loops
      in
      Util.Table.add_row t
        [
          Printf.sprintf "%d / %d%s" li lf (if (li, lf) = (2, 3) then "  (paper)" else "");
          Util.Table.cell_float ~decimals:1 (Core.Metrics.arithmetic_mean_degradation metrics);
          Util.Table.cell_float ~decimals:1 (Core.Metrics.pct_no_degradation metrics);
        ])
    [ (1, 1); (2, 3); (4, 6) ];
  Util.Table.print t

let lowered ?(n = 64) () =
  section "Explicit addressing (ours): the framework on lowered code";
  (* Lower affine addresses to induction-variable arithmetic and rerun the
     4x4 experiment: more integer ops, longer bodies, the same framework. *)
  let loops = Workload.Suite.loops ~n () in
  let machine = Mach.Machine.paper_clustered ~clusters:4 ~copy_model:Mach.Machine.Embedded in
  let t =
    Util.Table.create ~title:"4x4 embedded, 64 loops, abstract vs lowered addressing"
      ~header:[ "Form"; "mean ops/loop"; "mean ideal II"; "Arith mean degr." ]
  in
  let run label xform =
    let sizes = ref [] and iis = ref [] and degs = ref [] in
    List.iter
      (fun loop ->
        match xform loop with
        | None -> ()
        | Some loop -> (
            match Partition.Driver.pipeline ~machine loop with
            | Ok r ->
                sizes := float_of_int (Ir.Loop.size loop) :: !sizes;
                iis := float_of_int r.Partition.Driver.ideal.Sched.Modulo.ii :: !iis;
                degs := r.Partition.Driver.degradation :: !degs
            | Error _ -> ()))
      loops;
    Util.Table.add_row t
      [
        label;
        Util.Table.cell_float ~decimals:1 (Util.Stats.mean !sizes);
        Util.Table.cell_float ~decimals:2 (Util.Stats.mean !iis);
        Util.Table.cell_float ~decimals:1 (Util.Stats.mean !degs);
      ]
  in
  run "abstract addresses" (fun l -> Some l);
  run "lowered (iv arithmetic)" (fun l ->
      match Ir.Lower_addr.loop l with
      | lowered, _ -> Some lowered
      | exception Invalid_argument _ -> None);
  Util.Table.print t

let registers ?(n = 64) () =
  section "Register requirements (ours): partitioning shrinks per-bank pressure";
  (* The architectural argument for banking: each bank needs far fewer
     ports AND registers than a monolithic file. Mean per-loop register
     needs (MVE + cyclic colouring) of the ideal pipeline vs the largest
     single bank after partitioning. *)
  let loops = Workload.Suite.loops ~n () in
  let t =
    Util.Table.create ~title:"Mean registers needed per loop (MVE + cyclic colouring)"
      ~header:[ "Machine"; "total"; "largest bank" ]
  in
  let ideal_total = ref 0.0 and count = ref 0 in
  List.iter
    (fun loop ->
      let ddg = Ddg.Graph.of_loop loop in
      match Sched.Modulo.ideal ~machine:Mach.Machine.paper_ideal ddg with
      | Some o ->
          let req =
            Regalloc.Kernel_alloc.requirements ~kernel:o.Sched.Modulo.kernel ~loop ~banks:1
              ~bank_of:(fun _ -> 0)
          in
          ideal_total := !ideal_total +. float_of_int req.Regalloc.Kernel_alloc.total;
          incr count
      | None -> ())
    loops;
  Util.Table.add_row t
    [ "ideal (1 bank)";
      Util.Table.cell_float ~decimals:1 (!ideal_total /. float_of_int !count);
      Util.Table.cell_float ~decimals:1 (!ideal_total /. float_of_int !count) ];
  List.iter
    (fun clusters ->
      let machine =
        Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded
      in
      let total = ref 0.0 and biggest = ref 0.0 and count = ref 0 in
      List.iter
        (fun loop ->
          match Partition.Driver.pipeline ~machine loop with
          | Ok r ->
              let req =
                Regalloc.Kernel_alloc.requirements
                  ~kernel:r.Partition.Driver.clustered.Sched.Modulo.kernel
                  ~loop:r.Partition.Driver.rewritten ~banks:clusters
                  ~bank_of:(Partition.Assign.bank r.Partition.Driver.assignment)
              in
              total := !total +. float_of_int req.Regalloc.Kernel_alloc.total;
              biggest :=
                !biggest +. float_of_int (Array.fold_left max 0 req.Regalloc.Kernel_alloc.per_bank);
              incr count
          | Error _ -> ())
        loops;
      Util.Table.add_row t
        [
          machine.Mach.Machine.name;
          Util.Table.cell_float ~decimals:1 (!total /. float_of_int (max 1 !count));
          Util.Table.cell_float ~decimals:1 (!biggest /. float_of_int (max 1 !count));
        ])
    [ 2; 4; 8 ];
  Util.Table.print t

let specialized ?(n = 64) () =
  section "General vs specialized functional units (ours): the Section 3 contrast";
  (* "our model included general function units while theirs did not.
     This should lead to slightly greater degradation for us, since the
     general functional-unit model should allow for slightly more
     parallelism" — test the conjecture with Ozer-style clusters
     (1 FP, 1 load/store, 2 integer per cluster of 4). *)
  let loops = Workload.Suite.loops ~n () in
  let t =
    Util.Table.create ~title:"4 clusters x 4 units, embedded copies, 64 loops"
      ~header:[ "Cluster units"; "mean ideal II"; "Arith mean degr."; "No-degradation %" ]
  in
  let entry label machine =
    let iis = ref [] and metrics = ref [] in
    List.iter
      (fun loop ->
        match Partition.Driver.pipeline ~machine loop with
        | Ok r ->
            iis := float_of_int r.Partition.Driver.ideal.Sched.Modulo.ii :: !iis;
            metrics := Core.Metrics.of_result r :: !metrics
        | Error _ -> ())
      loops;
    Util.Table.add_row t
      [
        label;
        Util.Table.cell_float ~decimals:2 (Util.Stats.mean !iis);
        Util.Table.cell_float ~decimals:1 (Core.Metrics.arithmetic_mean_degradation !metrics);
        Util.Table.cell_float ~decimals:1 (Core.Metrics.pct_no_degradation !metrics);
      ]
  in
  entry "4 general (paper)"
    (Mach.Machine.paper_clustered ~clusters:4 ~copy_model:Mach.Machine.Embedded);
  entry "1 FP + 1 mem + 2 int (Ozer)"
    (Mach.Machine.make ~name:"4x4-ozer" ~fu_mix:Mach.Machine.ozer_cluster_mix ~clusters:4
       ~fus_per_cluster:4 ~copy_model:Mach.Machine.Embedded ());
  Util.Table.print t

let distribute ?(n = 120) () =
  section "Loop distribution (ours): Section 7's data-independence transformation";
  (* Distribution splits independent computations into separate loops:
     the steady-state time can only grow (resources are no longer
     shared), but each piece's register footprint shrinks — the classic
     fission trade-off, quantified on the distributable suite loops. *)
  let loops =
    List.filter Ir.Distribute.is_distributable (Workload.Suite.loops ~n ())
  in
  let t =
    Util.Table.create
      ~title:
        (Printf.sprintf "%d distributable loops: whole vs distributed (Σ II, max MaxLive)"
           (List.length loops))
      ~header:
        [ "Machine"; "whole II"; "split Σ II"; "whole MaxLive"; "split MaxLive" ]
  in
  List.iter
    (fun width ->
      let machine = Mach.Machine.ideal ~width () in
      let whole_ii = ref 0 and split_ii = ref 0 in
      let whole_ml = ref 0 and split_ml = ref 0 in
      let count = ref 0 in
      List.iter
        (fun loop ->
          let pipeline l =
            Option.map
              (fun (o : Sched.Modulo.outcome) ->
                ( o.Sched.Modulo.ii,
                  Sched.Pressure.max_live ~kernel:o.Sched.Modulo.kernel ~loop:l ))
              (Sched.Modulo.ideal ~machine (Ddg.Graph.of_loop l))
          in
          match pipeline loop with
          | None -> ()
          | Some (ii, ml) -> (
              let pieces = List.filter_map pipeline (Ir.Distribute.split loop) in
              if List.length pieces = List.length (Ir.Distribute.split loop) then begin
                incr count;
                whole_ii := !whole_ii + ii;
                whole_ml := !whole_ml + ml;
                split_ii := !split_ii + List.fold_left (fun a (i, _) -> a + i) 0 pieces;
                split_ml := !split_ml + List.fold_left (fun a (_, m) -> max a m) 0 pieces
              end))
        loops;
      let f v =
        Util.Table.cell_float ~decimals:2 (float_of_int v /. float_of_int (max 1 !count))
      in
      Util.Table.add_row t
        [ Printf.sprintf "%d-wide" width; f !whole_ii; f !split_ii; f !whole_ml; f !split_ml ])
    [ 16; 4 ];
  Util.Table.print t;
  print_endline
    "(on a wide machine pieces over-pipeline and pressure grows; on a narrow one\n\
    \ distribution trades a little steady-state time for less pressure per piece)"

let usage () =
  prerr_endline
    "usage: main.exe \
     [ablation|wholeprog|schedulers|latency|registers|lowered|specialized|distribute]";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "ablation" ] -> ablation ()
  | [ "wholeprog" ] -> wholeprog ()
  | [ "schedulers" ] -> schedulers ()
  | [ "latency" ] -> latency_sweep ()
  | [ "registers" ] -> registers ()
  | [ "lowered" ] -> lowered ()
  | [ "specialized" ] -> specialized ()
  | [ "distribute" ] -> distribute ()
  | [] ->
      ablation ();
      wholeprog ();
      schedulers ();
      latency_sweep ();
      registers ();
      lowered ();
      specialized ();
      distribute ()
  | _ -> usage ()
