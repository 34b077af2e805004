open Testlib

let mk ?(name = "l") ?(ideal = 2) ?(clustered = 2) ?(copies = 0) () =
  {
    Core.Metrics.name;
    ideal_ii = ideal;
    clustered_ii = clustered;
    degradation = 100.0 *. float_of_int clustered /. float_of_int ideal;
    ipc_ideal = 8.0;
    ipc_clustered = 7.0;
    n_copies = copies;
    n_ops = 16;
  }

let metrics_tests =
  [
    case "degradation-means" (fun () ->
        let ms = [ mk ~clustered:2 (); mk ~clustered:3 () ] in
        (* 100 and 150 *)
        check (Alcotest.float 1e-9) "arith" 125.0
          (Core.Metrics.arithmetic_mean_degradation ms);
        check (Alcotest.float 1e-6) "harmonic" 120.0
          (Core.Metrics.harmonic_mean_degradation ms));
    case "pct-no-degradation" (fun () ->
        let ms = [ mk (); mk ~clustered:3 (); mk (); mk () ] in
        check (Alcotest.float 1e-9) "75%" 75.0 (Core.Metrics.pct_no_degradation ms));
    case "histogram-buckets-match-labels" (fun () ->
        let h = Core.Metrics.degradation_histogram [ mk (); mk ~clustered:3 () ] in
        check Alcotest.int "bucket count" (List.length Core.Metrics.histogram_labels)
          (Array.length h.Util.Stats.counts);
        (* 0% in bucket 0; 50% in bucket "<60%" (index 6) *)
        check Alcotest.int "zero bucket" 1 h.Util.Stats.counts.(0);
        check Alcotest.int "50 bucket" 1 h.Util.Stats.counts.(6));
    case "of-result-consistency" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        match Partition.Driver.pipeline ~machine:m4x4e loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            let m = Core.Metrics.of_result r in
            check Alcotest.int "ideal ii" r.Partition.Driver.ideal.Sched.Modulo.ii
              m.Core.Metrics.ideal_ii;
            check (Alcotest.float 1e-9) "degradation"
              (100.0
              *. float_of_int m.Core.Metrics.clustered_ii
              /. float_of_int m.Core.Metrics.ideal_ii)
              m.Core.Metrics.degradation);
  ]

let experiment_tests =
  [
    case "paper-configs-shape" (fun () ->
        let cfgs = Core.Experiment.paper_configs in
        check Alcotest.int "six" 6 (List.length cfgs);
        List.iter
          (fun (c : Core.Experiment.config) ->
            check Alcotest.int "16 wide" 16 (Mach.Machine.width c.machine))
          cfgs);
    case "run-config-small" (fun () ->
        let loops = sample_loops ~n:8 () in
        let cfg = Core.Experiment.config_for ~clusters:4 ~copy_model:Mach.Machine.Embedded in
        let run = Core.Experiment.run_config ~loops cfg in
        check Alcotest.int "all pipelined" 8 (List.length run.Core.Experiment.metrics);
        check Alcotest.int "no failures" 0 (List.length run.Core.Experiment.failures));
    case "report-tables-render" (fun () ->
        let loops = sample_loops ~n:6 () in
        let runs = Core.Experiment.run_all ~loops () in
        let t1 = Core.Report.table1 ~ideal_ipc:8.6 runs in
        let t2 = Core.Report.table2 runs in
        check Alcotest.bool "t1 has Ideal" true (contains (Util.Table.render t1) "Ideal");
        check Alcotest.bool "t2 has Harmonic" true (contains (Util.Table.render t2) "Harmonic");
        let e = List.nth runs 0 and c = List.nth runs 1 in
        let fig = Core.Report.figure_histogram e c ~title:"fig" in
        check Alcotest.bool "fig has buckets" true
          (contains (Util.Table.render fig) "0.00%");
        check Alcotest.bool "failures none" true
          (contains (Core.Report.failures_summary runs) "none"));
  ]

(* Whole-function path: global RCG build + per-block copy insertion. *)
let whole_function_tests =
  [
    case "func-rcg-and-partition" (fun () ->
        let f = Mach.Rclass.Float in
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.scalar "x") in
        let y = Ir.Builder.load b f (Ir.Addr.scalar "y") in
        Ir.Builder.start_block ~depth:1 b "hot";
        let s = Ir.Builder.binop b Mach.Opcode.Mul f x y in
        let t = Ir.Builder.binop b Mach.Opcode.Add f s x in
        Ir.Builder.store b f (Ir.Addr.scalar "o") t;
        let fn = Ir.Builder.func b ~name:"wf" ~edges:[ ("entry", "hot") ] in
        let g = Rcg.Build.of_func ~machine:ideal16 fn in
        let a = Partition.Greedy.partition ~banks:4 g in
        check Alcotest.bool "covers func regs" true
          (Ir.Vreg.Set.for_all
             (fun r -> Partition.Assign.bank_opt a r <> None)
             (Ir.Func.vregs fn)));
    case "block-copy-insertion" (fun () ->
        let f = Mach.Rclass.Float in
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.scalar "x") in
        let y = Ir.Builder.unop b Mach.Opcode.Neg f x in
        Ir.Builder.store b f (Ir.Addr.scalar "o") y;
        let fn = Ir.Builder.func b ~name:"wf" ~edges:[] in
        let blk = Ir.Func.entry fn in
        (* force x and y into different banks *)
        let a = Partition.Assign.of_list [ (x, 0); (y, 1) ] in
        let blk', a', n =
          Partition.Copies.insert_block ~machine:m4x4e ~assignment:a ~fresh_vreg:100
            ~fresh_op:100 blk
        in
        check Alcotest.int "1 copy" 1 n;
        (* semantics preserved *)
        let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
        Ir.Eval.run_ops sa (Ir.Block.ops blk);
        Ir.Eval.run_ops sb (Ir.Block.ops blk');
        check Alcotest.bool "memory" true (mem_equal sa sb);
        check Alcotest.bool "assignment extended" true
          (Ir.Vreg.Map.cardinal a' > Ir.Vreg.Map.cardinal a));
  ]

let suite =
  [
    ("core.metrics", metrics_tests);
    ("core.experiment", experiment_tests);
    ("core.whole-function", whole_function_tests);
  ]
