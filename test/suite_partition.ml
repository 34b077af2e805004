open Testlib

let f = Mach.Rclass.Float

let assign_tests =
  [
    case "bank-lookup" (fun () ->
        let a = Partition.Assign.of_list [ (vreg 1, 0); (vreg 2, 3) ] in
        check Alcotest.int "bank" 3 (Partition.Assign.bank a (vreg 2));
        check Alcotest.(option int) "opt" None (Partition.Assign.bank_opt a (vreg 9)));
    case "bank-raises-on-missing" (fun () ->
        let a = Partition.Assign.of_list [] in
        check Alcotest.bool "raises" true
          (try
             ignore (Partition.Assign.bank a (vreg 1));
             false
           with Invalid_argument _ -> true));
    case "cluster-of-op-uses-dst" (fun () ->
        let a = Partition.Assign.of_list [ (vreg 1, 2); (vreg 2, 0) ] in
        let op =
          Ir.Op.make ~dst:(vreg 1) ~srcs:[ vreg 2 ] ~id:0 ~opcode:Mach.Opcode.Neg ~cls:f ()
        in
        check Alcotest.int "dst bank" 2 (Partition.Assign.cluster_of_op a op));
    case "cluster-of-store-uses-value" (fun () ->
        let a = Partition.Assign.of_list [ (vreg 1, 3) ] in
        let op =
          Ir.Op.make ~srcs:[ vreg 1 ] ~addr:(Ir.Addr.element "x") ~id:0
            ~opcode:Mach.Opcode.Store ~cls:f ()
        in
        check Alcotest.int "src bank" 3 (Partition.Assign.cluster_of_op a op));
    case "counts" (fun () ->
        let a = Partition.Assign.of_list [ (vreg 1, 0); (vreg 2, 0); (vreg 3, 1) ] in
        check Alcotest.(array int) "counts" [| 2; 1; 0; 0 |] (Partition.Assign.counts ~banks:4 a));
    case "copies-needed" (fun () ->
        (* op on bank 0 reading a bank-1 register: one copy *)
        let a = Partition.Assign.of_list [ (vreg 1, 0); (vreg 2, 1) ] in
        let op =
          Ir.Op.make ~dst:(vreg 1) ~srcs:[ vreg 2 ] ~id:0 ~opcode:Mach.Opcode.Neg ~cls:f ()
        in
        check Alcotest.int "1 copy" 1 (Partition.Assign.copies_needed a [ op ]);
        (* two consumers in the same cluster share the copy *)
        let op2 =
          Ir.Op.make ~dst:(vreg 3) ~srcs:[ vreg 2 ] ~id:1 ~opcode:Mach.Opcode.Abs ~cls:f ()
        in
        let a2 = Partition.Assign.of_list [ (vreg 1, 0); (vreg 2, 1); (vreg 3, 0) ] in
        check Alcotest.int "still 1" 1 (Partition.Assign.copies_needed a2 [ op; op2 ]));
  ]

let greedy_tests =
  [
    case "attracted-pair-shares-bank" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.add_edge_weight g (vreg 1) (vreg 2) 100.0;
        Rcg.Graph.add_node_weight g (vreg 1) 10.0;
        Rcg.Graph.add_node_weight g (vreg 2) 5.0;
        let a = Partition.Greedy.partition ~banks:4 g in
        check Alcotest.int "same bank" (Partition.Assign.bank a (vreg 1))
          (Partition.Assign.bank a (vreg 2)));
    case "repelled-pair-splits" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.add_edge_weight g (vreg 1) (vreg 2) (-50.0);
        Rcg.Graph.add_node_weight g (vreg 1) 10.0;
        Rcg.Graph.add_node_weight g (vreg 2) 5.0;
        let a = Partition.Greedy.partition ~banks:2 g in
        check Alcotest.bool "different banks" true
          (Partition.Assign.bank a (vreg 1) <> Partition.Assign.bank a (vreg 2)));
    case "balance-spreads-isolated-nodes" (fun () ->
        let g = Rcg.Graph.create () in
        for i = 1 to 8 do
          Rcg.Graph.add_node_weight g (vreg i) (float_of_int i)
        done;
        let a = Partition.Greedy.partition ~banks:4 g in
        let counts = Partition.Assign.counts ~banks:4 a in
        Array.iter (fun c -> check Alcotest.int "2 each" 2 c) counts);
    case "pins-respected" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.add_edge_weight g (vreg 1) (vreg 2) 100.0;
        Rcg.Graph.pin g (vreg 1) 3;
        let a = Partition.Greedy.partition ~banks:4 g in
        check Alcotest.int "pinned" 3 (Partition.Assign.bank a (vreg 1));
        (* attraction drags the partner along *)
        check Alcotest.int "partner follows" 3 (Partition.Assign.bank a (vreg 2)));
    case "keep-apart-respected" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.add_edge_weight g (vreg 1) (vreg 2) 1.0;
        Rcg.Graph.keep_apart g (vreg 1) (vreg 2);
        let a = Partition.Greedy.partition ~banks:2 g in
        check Alcotest.bool "split" true
          (Partition.Assign.bank a (vreg 1) <> Partition.Assign.bank a (vreg 2)));
    case "single-bank-trivial" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.add_edge_weight g (vreg 1) (vreg 2) (-5.0);
        let a = Partition.Greedy.partition ~banks:1 g in
        check Alcotest.bool "all zero" true (Partition.Assign.all_in_range ~banks:1 a));
    case "out-of-range-pin-rejected" (fun () ->
        let g = Rcg.Graph.create () in
        Rcg.Graph.pin g (vreg 1) 7;
        check Alcotest.bool "raises" true
          (try
             ignore (Partition.Greedy.partition ~banks:2 g);
             false
           with Invalid_argument _ -> true));
    qcheck ~count:50 "total-and-in-range" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let g = Rcg.Build.of_loop ~machine:ideal16 loop in
        let a = Partition.Greedy.partition ~banks:4 g in
        Partition.Assign.all_in_range ~banks:4 a
        && Ir.Vreg.Set.for_all
             (fun r -> Partition.Assign.bank_opt a r <> None)
             (Ir.Loop.vregs loop));
  ]

let copies_tests =
  [
    case "monolithic-no-copies" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        let a =
          Partition.Assign.of_list
            (List.map (fun r -> (r, 0)) (Ir.Vreg.Set.elements (Ir.Loop.vregs loop)))
        in
        let r = Partition.Copies.insert_loop ~machine:ideal16 ~assignment:a loop in
        check Alcotest.int "0 copies" 0 r.Partition.Copies.n_copies);
    case "all-uses-local-after-rewrite" (fun () ->
        List.iter
          (fun loop ->
            let g = Rcg.Build.of_loop ~machine:ideal16 loop in
            let a = Partition.Greedy.partition ~banks:4 g in
            let r = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
            List.iter
              (fun op ->
                (* Copies are the one op kind allowed to read remotely. *)
                if not (Ir.Op.is_copy op) then begin
                  let c = Partition.Assign.cluster_of_op r.Partition.Copies.assignment op in
                  List.iter
                    (fun u ->
                      check Alcotest.int
                        (Printf.sprintf "%s local in %s" (Ir.Vreg.to_string u)
                           (Ir.Op.to_string op))
                        c
                        (Partition.Assign.bank r.Partition.Copies.assignment u))
                    (Ir.Op.uses op)
                end)
              (Ir.Loop.ops r.Partition.Copies.loop))
          (sample_loops ~n:12 ()));
    case "copy-count-matches-static-metric" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:4 in
        let g = Rcg.Build.of_loop ~machine:ideal16 loop in
        let a = Partition.Greedy.partition ~banks:4 g in
        let expected = Partition.Assign.copies_needed a (Ir.Loop.ops loop) in
        let r = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
        check Alcotest.int "copies" expected r.Partition.Copies.n_copies);
    case "semantics-preserved-by-copies" (fun () ->
        List.iter
          (fun loop ->
            let g = Rcg.Build.of_loop ~machine:ideal16 loop in
            let a = Partition.Greedy.partition ~banks:4 g in
            let r = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
            let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
            seed_state sa loop;
            seed_state sb loop;
            Ir.Eval.run_loop sa ~trips:5 loop;
            Ir.Eval.run_loop sb ~trips:5 r.Partition.Copies.loop;
            if not (mem_equal sa sb) then
              Alcotest.failf "%s: memory differs after copy insertion\n%s" (Ir.Loop.name loop)
                (mem_diff sa sb);
            Ir.Vreg.Set.iter
              (fun lo ->
                check Alcotest.bool (Ir.Vreg.to_string lo) true
                  (Ir.Eval.value_equal (Ir.Eval.get_reg sa lo) (Ir.Eval.get_reg sb lo)))
              (Ir.Loop.live_out loop))
          (sample_loops ~n:16 ()));
    case "per-cluster-counts-consistent" (fun () ->
        let loop = Workload.Kernels.cmul ~unroll:2 in
        let g = Rcg.Build.of_loop ~machine:ideal16 loop in
        let a = Partition.Greedy.partition ~banks:4 g in
        let r = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
        let total_copies = Array.fold_left ( + ) 0 r.Partition.Copies.copies_per_cluster in
        let total_ops = Array.fold_left ( + ) 0 r.Partition.Copies.ops_per_cluster in
        check Alcotest.int "copies" r.Partition.Copies.n_copies total_copies;
        check Alcotest.int "ops" (Ir.Loop.size loop) total_ops;
        check Alcotest.int "body size" (Ir.Loop.size loop + r.Partition.Copies.n_copies)
          (Ir.Loop.size r.Partition.Copies.loop));
  ]

let baseline_tests =
  [
    case "bug-covers-all-registers" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            let a = Partition.Bug.partition ~machine:m4x4e ddg in
            check Alcotest.bool (Ir.Loop.name loop) true
              (Ir.Vreg.Set.for_all
                 (fun r -> Partition.Assign.bank_opt a r <> None)
                 (Ir.Loop.vregs loop)))
          (sample_loops ()));
    case "uas-covers-all-registers" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            let a = Partition.Uas.partition ~machine:m4x4e ddg in
            check Alcotest.bool (Ir.Loop.name loop) true
              (Ir.Vreg.Set.for_all
                 (fun r -> Partition.Assign.bank_opt a r <> None)
                 (Ir.Loop.vregs loop)))
          (sample_loops ()));
    case "bug-in-range" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.hydro ~unroll:4) in
        check Alcotest.bool "range" true
          (Partition.Assign.all_in_range ~banks:8
             (Partition.Bug.partition ~machine:m8x2e ddg)));
    case "uas-respects-cluster-width" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.cmul ~unroll:4) in
        check Alcotest.bool "range" true
          (Partition.Assign.all_in_range ~banks:8
             (Partition.Uas.partition ~machine:m8x2e ddg)));
  ]

let driver_tests =
  [
    case "monolithic-pipeline-no-degradation" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        match Partition.Driver.pipeline ~machine:ideal16 loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            check (Alcotest.float 1e-9) "100" 100.0 r.Partition.Driver.degradation;
            check Alcotest.int "no copies" 0 r.Partition.Driver.n_copies);
    case "clustered-kernel-is-valid" (fun () ->
        List.iter
          (fun machine ->
            List.iter
              (fun loop ->
                match Partition.Driver.pipeline ~machine loop with
                | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) (Verify.Stage_error.to_string e)
                | Ok r ->
                    let ddg =
                      Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency
                        r.Partition.Driver.rewritten
                    in
                    let cluster_of =
                      match
                        Partition.Driver.cluster_map r.Partition.Driver.assignment
                          r.Partition.Driver.rewritten
                      with
                      | Ok f -> f
                      | Error e -> Alcotest.failf "%s: cluster map: %s" (Ir.Loop.name loop) e
                    in
                    (match
                       Sched.Check.kernel ~machine ~cluster_of ~ddg
                         r.Partition.Driver.clustered.Sched.Modulo.kernel
                     with
                    | Ok () -> ()
                    | Error e ->
                        Alcotest.failf "%s on %s: %s" (Ir.Loop.name loop)
                          machine.Mach.Machine.name e))
              (sample_loops ~n:10 ()))
          [ m2x8e; m4x4e; m4x4c; m8x2e; m8x2c ]);
    case "degradation-at-least-100" (fun () ->
        List.iter
          (fun loop ->
            match Partition.Driver.pipeline ~machine:m4x4e loop with
            | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) (Verify.Stage_error.to_string e)
            | Ok r ->
                check Alcotest.bool
                  (Printf.sprintf "%s >= 100" (Ir.Loop.name loop))
                  true
                  (r.Partition.Driver.degradation >= 100.0))
          (sample_loops ~n:20 ()));
    case "bug-partitioner-runs" (fun () ->
        let loop = Workload.Kernels.stencil3 ~unroll:2 in
        match Partition.Driver.pipeline ~partitioner:Partition.Driver.Bug ~machine:m4x4e loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r -> check Alcotest.bool "done" true (r.Partition.Driver.degradation >= 100.0));
    case "uas-partitioner-runs" (fun () ->
        let loop = Workload.Kernels.stencil3 ~unroll:2 in
        match Partition.Driver.pipeline ~partitioner:Partition.Driver.Uas ~machine:m4x4e loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r -> check Alcotest.bool "done" true (r.Partition.Driver.degradation >= 100.0));
    case "custom-partitioner-receives-rcg" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        let saw_rcg = ref false in
        let custom _machine ddg rcg =
          (match rcg with Some _ -> saw_rcg := true | None -> ());
          let regs =
            List.fold_left
              (fun acc op ->
                List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc
                  (Ir.Op.defs op @ Ir.Op.uses op))
              Ir.Vreg.Set.empty (Ddg.Graph.ops_in_order ddg)
          in
          Partition.Assign.of_list (List.map (fun r -> (r, 0)) (Ir.Vreg.Set.elements regs))
        in
        match
          Partition.Driver.pipeline ~partitioner:(Partition.Driver.Custom custom)
            ~machine:m4x4e loop
        with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            check Alcotest.bool "rcg passed" true !saw_rcg;
            (* everything in bank 0: no copies at all *)
            check Alcotest.int "no copies" 0 r.Partition.Driver.n_copies);
    case "embedded-ipc-counts-copies" (fun () ->
        let loop = Workload.Kernels.cmul ~unroll:4 in
        match
          ( Partition.Driver.pipeline ~machine:m8x2e loop,
            Partition.Driver.pipeline ~machine:m8x2c loop )
        with
        | Ok re, Ok rc ->
            let ke = re.Partition.Driver.clustered.Sched.Modulo.kernel in
            check (Alcotest.float 1e-9) "embedded ipc = all ops / ii"
              (float_of_int (Sched.Kernel.op_count ke) /. float_of_int (Sched.Kernel.ii ke))
              re.Partition.Driver.ipc_clustered;
            let kc = rc.Partition.Driver.clustered.Sched.Modulo.kernel in
            let non_copy =
              List.length
                (List.filter
                   (fun (p : Sched.Schedule.placement) -> not (Ir.Op.is_copy p.op))
                   (Sched.Kernel.placements kc))
            in
            check (Alcotest.float 1e-9) "copy-unit ipc excludes copies"
              (float_of_int non_copy /. float_of_int (Sched.Kernel.ii kc))
              rc.Partition.Driver.ipc_clustered
        | Error e, _ | _, Error e -> Alcotest.fail (Verify.Stage_error.to_string e));
    case "pipelined-clustered-code-semantics" (fun () ->
        (* end to end: expansion of the clustered kernel of the rewritten
           loop computes the same memory as the original loop *)
        List.iter
          (fun loop ->
            match Partition.Driver.pipeline ~machine:m4x4e loop with
            | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) (Verify.Stage_error.to_string e)
            | Ok r ->
                let trips = 6 in
                let code =
                  Sched.Expand.flatten ~kernel:r.Partition.Driver.clustered.Sched.Modulo.kernel
                    ~loop:r.Partition.Driver.rewritten ~trips
                in
                let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
                seed_state sa loop;
                seed_state sb loop;
                Ir.Eval.run_loop sa ~trips loop;
                Ir.Eval.run_ops sb (Sched.Expand.ops code);
                if not (mem_equal sa sb) then
                  Alcotest.failf "%s: clustered pipeline diverges\n%s" (Ir.Loop.name loop)
                    (mem_diff sa sb))
          (sample_loops ~n:14 ()));
  ]

(* Every greedy decision over the whole experiment, folded into one MD5:
   for each suite loop on each of the six paper configurations, the RCG
   the pipeline would build from its ideal kernel is partitioned with
   tracing on, and the balance penalty, every per-bank benefit vector
   (floats in [%h], so any change of summation order shows) and the
   final (register, bank) map go into the digest. The expected value was
   computed before the RCG and the partitioner moved to dense rows. *)
let greedy_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let places = ref 0 in
  List.iter
    (fun loop ->
      List.iter
        (fun (cfg : Core.Experiment.config) ->
          let m = cfg.machine in
          Printf.bprintf buf "%s %s\n" (Ir.Loop.name loop) cfg.label;
          let ddg = Ddg.Graph.of_loop ~latency:m.Mach.Machine.latency loop in
          match Sched.Modulo.ideal ~machine:m ddg with
          | None -> Buffer.add_string buf "no ideal\n"
          | Some ideal ->
              let rcg =
                Rcg.Build.build
                  (Rcg.Build.source_of_kernel ~ddg ~depth:(Ir.Loop.depth loop)
                     ideal.Sched.Modulo.kernel)
              in
              let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
              let a = Partition.Greedy.partition ~obs ~banks:m.clusters rcg in
              Obs.Trace.iter_events
                (function
                  | Obs.Events.Greedy_penalty { penalty; mean_edge; nodes; banks } ->
                      Printf.bprintf buf "penalty %h %h %d %d\n" penalty mean_edge nodes banks
                  | Obs.Events.Greedy_place { node; bank; benefit; benefits; ties; pinned } ->
                      incr places;
                      Printf.bprintf buf "place %s %d %h [%s] [%s] %b\n" node bank benefit
                        (String.concat " " (List.map (Printf.sprintf "%h") benefits))
                        (String.concat " " (List.map string_of_int ties))
                        pinned
                  | _ -> ())
                obs;
              Ir.Vreg.Map.iter
                (fun r b -> Printf.bprintf buf " %s:%d" (Ir.Vreg.to_string r) b)
                a;
              Buffer.add_char buf '\n')
        Core.Experiment.paper_configs)
    (Workload.Suite.loops ());
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !places)

let greedy_decision_tests =
  [
    slow_case "greedy-decisions-pinned" (fun () ->
        let digest, places = greedy_digest () in
        check Alcotest.bool "placements exercised" true (places > 0);
        check Alcotest.string "decision digest" "6a0692f5500b4b19e5c2a27926775109" digest);
  ]

let suite =
  [
    ("partition.assign", assign_tests);
    ("partition.greedy", greedy_tests);
    ("partition.greedy-digest", greedy_decision_tests);
    ("partition.copies", copies_tests);
    ("partition.baselines", baseline_tests);
    ("partition.driver", driver_tests);
  ]
