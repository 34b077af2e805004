(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the synthetic 211-loop suite.

   Usage:
     bench/main.exe              -- everything
     bench/main.exe table1       -- just Table 1     (likewise table2)
     bench/main.exe fig5|fig6|fig7
     bench/main.exe ablation     -- partitioner/weight ablation (ours)
     bench/main.exe quick        -- tables on a reduced suite (CI),
                                    plus BENCH_quick.json telemetry
     bench/main.exe quick-json [PATH] -- just the reduced-suite telemetry
                                    (the CI perf gate's input)
     bench/main.exe json         -- just the BENCH_pipeline.json telemetry

   Engine flags (usable with any command, stripped before dispatch):
     -j N            -- shard suite sweeps over N domains (0 = one per
                        core; default 1, the exact serial path)
     --no-cache      -- disable the content-addressed result cache
     --cache-dir DIR -- cache location (default _rbp_cache) *)

let section title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')

let suite_seed = 1995

(* Engine knobs, set by the argv prefix below. [jobs = 1] is the exact
   serial path; 0 means one domain per core. *)
let jobs = ref 1
let use_cache = ref true
let cache_dir = ref Engine.Cache.default_dir
let effective_jobs () = if !jobs <= 0 then Engine.Pool.default_jobs () else !jobs

type sweep = {
  sweep_runs : Core.Experiment.run list;
  sweep_ipc : float;
  sweep_hits : int;
  sweep_wall : float;
}

let runs_cache : (int, sweep) Hashtbl.t = Hashtbl.create 4

let sweep_for ?(n = Workload.Suite.size) () =
  match Hashtbl.find_opt runs_cache n with
  | Some r -> r
  | None ->
      let loops = Workload.Suite.loops ~seed:suite_seed ~n () in
      let cache =
        if !use_cache then Some (Engine.Cache.open_ ~dir:!cache_dir ()) else None
      in
      let t0 = Unix.gettimeofday () in
      let runs = Core.Experiment.run_all ~jobs:!jobs ?cache ~loops () in
      let wall = Unix.gettimeofday () -. t0 in
      let ipc = Core.Experiment.ideal_ipc ~loops () in
      let hits =
        List.fold_left
          (fun acc (r : Core.Experiment.run) -> acc + r.cache_hits)
          0 runs
      in
      let sweep =
        { sweep_runs = runs; sweep_ipc = ipc; sweep_hits = hits; sweep_wall = wall }
      in
      Hashtbl.replace runs_cache n sweep;
      sweep

let runs_for ?n () =
  let s = sweep_for ?n () in
  (s.sweep_runs, s.sweep_ipc)

let find_run runs ~clusters ~copy_model =
  List.find
    (fun (r : Core.Experiment.run) ->
      r.config.clusters = clusters && r.config.copy_model = copy_model)
    runs

let table1 ?n () =
  let runs, ideal_ipc = runs_for ?n () in
  section "Table 1: IPC of Clustered Software Pipelines";
  Util.Table.print (Core.Report.table1 ~ideal_ipc runs);
  Printf.printf "(paper: ideal 8.6; clustered 9.3/6.2, 8.4/7.5, 6.9/6.8)\n"

let table2 ?n () =
  let runs, _ = runs_for ?n () in
  section "Table 2: Degradation Over Ideal Schedules - Normalized";
  Util.Table.print (Core.Report.table2 runs);
  Printf.printf "(paper: arith 111/150, 126/122, 162/133; harm 109/127, 119/115, 138/124)\n";
  print_string "Scheduling failures:\n";
  print_string (Core.Report.failures_summary runs)

let figure ?n ~clusters ~number () =
  let runs, _ = runs_for ?n () in
  let e = find_run runs ~clusters ~copy_model:Mach.Machine.Embedded in
  let c = find_run runs ~clusters ~copy_model:Mach.Machine.Copy_unit in
  let title =
    Printf.sprintf "Figure %d: Achieved II on %d Clusters with %d Units Each" number clusters
      (16 / clusters)
  in
  section title;
  Util.Table.print (Core.Report.figure_histogram e c ~title:"% of loops per degradation bucket");
  print_string (Core.Report.ascii_histogram e c ~title:"");
  Printf.printf "No degradation: embedded %.0f%%, copy-unit %.0f%% of loops\n"
    (Core.Metrics.pct_no_degradation e.metrics)
    (Core.Metrics.pct_no_degradation c.metrics)

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

(* Machine-readable telemetry: one rbp-bench/1 document per bench run —
   the suite parameters and per-configuration aggregate metrics (the
   numbers behind Tables 1-2, written by the same function as
   `rbp report -f json`), plus the engine telemetry perfdiff notes but
   never gates on. Per-layer timings live in perfbench. *)
let bench_json ~path ?n () =
  let loop_count = match n with Some n -> n | None -> Workload.Suite.size in
  let sweep = sweep_for ~n:loop_count () in
  let doc =
    Core.Report.paper_tables_json
      ~engine:
        {
          Core.Report.jobs = effective_jobs ();
          cache_hits = sweep.sweep_hits;
          wall_s = sweep.sweep_wall;
        }
      ~seed:suite_seed ~loops:loop_count ~ideal_ipc:sweep.sweep_ipc sweep.sweep_runs
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let usage () =
  prerr_endline
    "usage: main.exe [-j N] [--no-cache] [--cache-dir DIR] \
     [table1|table2|fig5|fig6|fig7|ablation|wholeprog|schedulers\
     |latency|registers|quick|quick-json [PATH]|json]";
  exit 2

let () =
  let rec strip acc = function
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> jobs := n; strip acc rest
        | None -> usage ())
    | [ "-j" ] -> usage ()
    | "--no-cache" :: rest ->
        use_cache := false;
        strip acc rest
    | "--cache-dir" :: dir :: rest ->
        cache_dir := dir;
        strip acc rest
    | [ "--cache-dir" ] -> usage ()
    | a :: rest -> strip (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip [] (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "table1" ] -> table1 ()
  | [ "table2" ] -> table2 ()
  | [ "fig5" ] -> figure ~clusters:2 ~number:5 ()
  | [ "fig6" ] -> figure ~clusters:4 ~number:6 ()
  | [ "fig7" ] -> figure ~clusters:8 ~number:7 ()
  | [ "ablation" ] -> ablation ()
  | [ "wholeprog" ] -> wholeprog ()
  | [ "schedulers" ] -> schedulers ()
  | [ "latency" ] -> latency_sweep ()
  | [ "registers" ] -> registers ()
  | [ "lowered" ] -> lowered ()
  | [ "specialized" ] -> specialized ()
  | [ "distribute" ] -> distribute ()
  | [ "quick" ] ->
      table1 ~n:32 ();
      table2 ~n:32 ();
      bench_json ~path:"BENCH_quick.json" ~n:32 ()
  | [ "quick-json" ] -> bench_json ~path:"BENCH_quick.json" ~n:32 ()
  | [ "quick-json"; path ] -> bench_json ~path ~n:32 ()
  | [ "json" ] -> bench_json ~path:"BENCH_pipeline.json" ()
  | [] ->
      table1 ();
      table2 ();
      figure ~clusters:2 ~number:5 ();
      figure ~clusters:4 ~number:6 ();
      figure ~clusters:8 ~number:7 ();
      ablation ();
      wholeprog ();
      schedulers ();
      latency_sweep ();
      registers ();
      lowered ();
      specialized ();
      distribute ();
      bench_json ~path:"BENCH_pipeline.json" ()
  | _ -> usage ()
