open Testlib

let f = Mach.Rclass.Float
let i = Mach.Rclass.Int

let op ?dst ?srcs ?addr ?imm ~id opcode cls =
  Ir.Op.make ?dst ?srcs ?addr ?imm ~id ~opcode ~cls ()

let load ~id dst base = op ~dst ~addr:(Ir.Addr.element base) ~id Mach.Opcode.Load (Ir.Vreg.cls dst)
let store ~id v base = op ~srcs:[ v ] ~addr:(Ir.Addr.element base) ~id Mach.Opcode.Store (Ir.Vreg.cls v)
let add ~id dst a b = op ~dst ~srcs:[ a; b ] ~id Mach.Opcode.Add (Ir.Vreg.cls dst)
let copy ~id dst src = op ~dst ~srcs:[ src ] ~id Mach.Opcode.Copy (Ir.Vreg.cls dst)

let assign pairs =
  List.fold_left (fun m (r, b) -> Ir.Vreg.Map.add r b m) Ir.Vreg.Map.empty pairs

let mapping pairs =
  List.fold_left (fun m (r, p) -> Ir.Vreg.Map.add r p m) Ir.Vreg.Map.empty pairs

let place ops_cycles_clusters =
  List.map
    (fun (op, cycle, cluster) -> { Sched.Schedule.op; cycle; cluster })
    ops_cycles_clusters

let ddg_of machine loop = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop

let has_error_code code diags =
  Verify.Diag.has_code code diags
  && List.exists (fun d -> d.Verify.Diag.code = code) (Verify.Diag.errors diags)

(* ------------------------------------------------------------------ *)
(* Diagnostics plumbing                                                *)
(* ------------------------------------------------------------------ *)

let diag_tests =
  [
    case "diag-rendering-and-summary" (fun () ->
        let e = Verify.Diag.error ~loc:"op 7" Verify.Diag.Partition ~code:"PT003" "cross-bank operand" in
        let w = Verify.Diag.warning Verify.Diag.Alloc ~code:"AL999" "just a warning" in
        check Alcotest.bool "code in rendering" true
          (contains (Verify.Diag.to_string e) "PT003");
        check Alcotest.bool "severity in rendering" true
          (contains (Verify.Diag.to_string e) "error");
        check Alcotest.bool "loc in rendering" true
          (contains (Verify.Diag.to_string e) "op 7");
        check Alcotest.string "summary" "1 error, 1 warning" (Verify.Diag.summary [ w; e ]);
        check Alcotest.string "clean summary" "clean" (Verify.Diag.summary []);
        check Alcotest.bool "has_code" true (Verify.Diag.has_code "AL999" [ w; e ]);
        check Alcotest.bool "has_errors" true (Verify.Diag.has_errors [ w; e ]);
        check Alcotest.bool "warnings alone are not errors" false (Verify.Diag.has_errors [ w ]);
        match Verify.Diag.by_severity [ w; e ] with
        | [ first; _ ] ->
            check Alcotest.string "errors sort first" "PT003" first.Verify.Diag.code
        | _ -> Alcotest.fail "expected two diagnostics");
    case "verdict-renders-errors" (fun () ->
        let e = Verify.Diag.error Verify.Diag.Sched ~code:"SCH002" "edge violated" in
        (match Verify.Pipeline.verdict [ e ] with
        | Ok () -> Alcotest.fail "expected Error"
        | Error msg -> check Alcotest.bool "code surfaces" true (contains msg "SCH002"));
        check Alcotest.bool "warnings pass" true
          (Verify.Pipeline.verdict [ Verify.Diag.warning Verify.Diag.Ir ~code:"IR003" "x" ]
          = Ok ()));
  ]

(* ------------------------------------------------------------------ *)
(* Positive: seed workloads are clean under every analyzer             *)
(* ------------------------------------------------------------------ *)

let clean_under_driver machine loops =
  List.iter
    (fun loop ->
      match Partition.Driver.pipeline ~verify:true ~machine loop with
      | Ok _ -> ()
      | Error e ->
          if e.Verify.Stage_error.stage = Verify.Stage_error.Verification then
            Alcotest.failf "loop %s: %s" (Ir.Loop.name loop)
              (Verify.Stage_error.to_string e))
    loops

let positive_tests =
  [
    case "sample-loops-ir-clean" (fun () ->
        List.iter
          (fun loop ->
            let diags = Verify.Ir_check.loop loop in
            if Verify.Diag.has_errors diags then
              Alcotest.failf "loop %s: %s" (Ir.Loop.name loop)
                (String.concat "; " (List.map Verify.Diag.to_string (Verify.Diag.errors diags))))
          (sample_loops ()));
    case "driver-verify-clean-sample" (fun () ->
        clean_under_driver m4x4e (sample_loops ~n:12 ()));
    case "alloc-diagnostics-clean" (fun () ->
        List.iter
          (fun loop ->
            match Partition.Driver.pipeline ~machine:m4x4e loop with
            | Error _ -> ()
            | Ok r -> (
                match
                  Regalloc.Alloc.allocate_loop ~machine:m4x4e
                    ~assignment:r.Partition.Driver.assignment r.Partition.Driver.rewritten
                with
                | Error _ -> ()
                | Ok alloc ->
                    let diags = Regalloc.Alloc.diagnostics ~machine:m4x4e alloc in
                    if Verify.Diag.has_errors diags then
                      Alcotest.failf "loop %s: %s" (Ir.Loop.name loop)
                        (String.concat "; "
                           (List.map Verify.Diag.to_string (Verify.Diag.errors diags)))))
          (sample_loops ~n:8 ()));
    slow_case "driver-verify-full-suite" (fun () ->
        let loops = Workload.Suite.loops () in
        clean_under_driver m4x4e loops;
        clean_under_driver m4x4c loops);
  ]

(* ------------------------------------------------------------------ *)
(* Negative: hand-mutated artifacts, one distinct code per case        *)
(* ------------------------------------------------------------------ *)

let a = vreg 100
let b = vreg 101
let c = vreg 102

let ir_negative_tests =
  [
    case "IR001-duplicate-op-id" (fun () ->
        let ops = [ load ~id:0 a "x"; load ~id:0 b "y" ] in
        check Alcotest.bool "IR001" true (has_error_code "IR001" (Verify.Ir_check.ops ops)));
    case "IR002-empty-body" (fun () ->
        check Alcotest.bool "IR002" true (has_error_code "IR002" (Verify.Ir_check.ops [])));
    case "IR003-dead-definition" (fun () ->
        let ops = [ load ~id:0 a "x"; load ~id:1 b "y"; store ~id:2 b "z" ] in
        check Alcotest.bool "IR003" true
          (Verify.Diag.has_code "IR003" (Verify.Ir_check.ops ops)));
    case "IR004-live-out-absent" (fun () ->
        let ghost = vreg 999 in
        let loop =
          Ir.Loop.make ~name:"ghost" ~live_out:(Ir.Vreg.Set.singleton ghost)
            [ load ~id:0 a "x"; store ~id:1 a "y" ]
        in
        check Alcotest.bool "IR004" true (has_error_code "IR004" (Verify.Ir_check.loop loop)));
    case "IR005-class-mismatch" (fun () ->
        let d = vreg ~cls:i 103 in
        let ops = [ load ~id:0 a "x"; op ~dst:d ~srcs:[ a ] ~id:1 Mach.Opcode.Add f; store ~id:2 d "y" ] in
        check Alcotest.bool "IR005" true
          (Verify.Diag.has_code "IR005" (Verify.Ir_check.ops ops)));
    case "IR006-shadowed-definition" (fun () ->
        let ops = [ load ~id:0 a "x"; load ~id:1 a "y"; store ~id:2 a "z" ] in
        check Alcotest.bool "IR006" true
          (Verify.Diag.has_code "IR006" (Verify.Ir_check.ops ops)));
  ]

let sched_negative_tests =
  [
    case "SCH001-unscheduled-op" (fun () ->
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; store ~id:1 a "y" ] in
        let ddg = ddg_of m4x4e loop in
        let k = Sched.Kernel.make ~ii:2 (place [ (Ir.Loop.op_by_id loop 0, 0, 0) ]) in
        check Alcotest.bool "SCH001" true
          (has_error_code "SCH001" (Verify.Sched_check.kernel ~machine:m4x4e ~ddg k)));
    case "SCH002-violated-edge" (fun () ->
        (* load latency is 2; consumer in the same cycle breaks the edge *)
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; add ~id:1 b a a; store ~id:2 b "y" ] in
        let ddg = ddg_of m4x4e loop in
        let k =
          Sched.Kernel.make ~ii:4
            (place
               [ (Ir.Loop.op_by_id loop 0, 0, 0); (Ir.Loop.op_by_id loop 1, 0, 0);
                 (Ir.Loop.op_by_id loop 2, 4, 0) ])
        in
        check Alcotest.bool "SCH002" true
          (has_error_code "SCH002" (Verify.Sched_check.kernel ~machine:m4x4e ~ddg k)));
    case "SCH003-oversubscribed-slot" (fun () ->
        (* m8x2e has 2 FUs per cluster; three ops in one (cluster, slot) *)
        let loop =
          Ir.Loop.make ~name:"t"
            [ load ~id:0 a "x"; load ~id:1 b "y"; load ~id:2 c "z";
              store ~id:3 a "p"; store ~id:4 b "q"; store ~id:5 c "r" ]
        in
        let ddg = ddg_of m8x2e loop in
        let k =
          Sched.Kernel.make ~ii:4
            (place
               [ (Ir.Loop.op_by_id loop 0, 0, 0); (Ir.Loop.op_by_id loop 1, 0, 0);
                 (Ir.Loop.op_by_id loop 2, 0, 0); (Ir.Loop.op_by_id loop 3, 2, 1);
                 (Ir.Loop.op_by_id loop 4, 2, 2); (Ir.Loop.op_by_id loop 5, 2, 3) ])
        in
        check Alcotest.bool "SCH003" true
          (has_error_code "SCH003" (Verify.Sched_check.kernel ~machine:m8x2e ~ddg k)));
    case "SCH004-invalid-cluster" (fun () ->
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; store ~id:1 a "y" ] in
        let ddg = ddg_of m4x4e loop in
        let k =
          Sched.Kernel.make ~ii:2
            (place [ (Ir.Loop.op_by_id loop 0, 0, 99); (Ir.Loop.op_by_id loop 1, 2, 0) ])
        in
        check Alcotest.bool "SCH004" true
          (has_error_code "SCH004" (Verify.Sched_check.kernel ~machine:m4x4e ~ddg k)));
    case "SCH005-foreign-op" (fun () ->
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; store ~id:1 a "y" ] in
        let ddg = ddg_of m4x4e loop in
        let foreign = load ~id:77 b "w" in
        let k =
          Sched.Kernel.make ~ii:2
            (place
               [ (Ir.Loop.op_by_id loop 0, 0, 0); (Ir.Loop.op_by_id loop 1, 2, 0);
                 (foreign, 1, 1) ])
        in
        check Alcotest.bool "SCH005" true
          (has_error_code "SCH005" (Verify.Sched_check.kernel ~machine:m4x4e ~ddg k)));
  ]

let partition_negative_tests =
  [
    case "PT001-unassigned-register" (fun () ->
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; store ~id:1 a "y" ] in
        check Alcotest.bool "PT001" true
          (has_error_code "PT001"
             (Verify.Partition_check.check ~machine:m4x4e ~assignment:Ir.Vreg.Map.empty loop)));
    case "PT002-bank-out-of-range" (fun () ->
        let loop = Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; store ~id:1 a "y" ] in
        check Alcotest.bool "PT002" true
          (has_error_code "PT002"
             (Verify.Partition_check.check ~machine:m4x4e ~assignment:(assign [ (a, 99) ]) loop)));
    case "PT003-cross-bank-operand" (fun () ->
        let loop =
          Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; add ~id:1 b a a; store ~id:2 b "y" ]
        in
        let asg = assign [ (a, 0); (b, 1) ] in
        check Alcotest.bool "PT003" true
          (has_error_code "PT003" (Verify.Partition_check.check ~machine:m4x4e ~assignment:asg loop)));
    case "PT004-same-bank-copy" (fun () ->
        let loop =
          Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; copy ~id:1 b a; store ~id:2 b "y" ]
        in
        let asg = assign [ (a, 0); (b, 0) ] in
        check Alcotest.bool "PT004" true
          (has_error_code "PT004" (Verify.Partition_check.check ~machine:m4x4e ~assignment:asg loop)));
    case "PT005-redundant-copy" (fun () ->
        (* one cross-bank transfer suffices; the rewritten body emits two *)
        let c1 = vreg 104 and c2 = vreg 105 in
        let original =
          Ir.Loop.make ~name:"t" [ load ~id:0 a "x"; add ~id:1 b a a; store ~id:2 b "y" ]
        in
        let rewritten =
          Ir.Loop.make ~name:"t"
            [ load ~id:0 a "x"; copy ~id:3 c1 a; copy ~id:4 c2 a;
              add ~id:1 b c1 c2; store ~id:2 b "y" ]
        in
        let asg = assign [ (a, 0); (b, 1); (c1, 1); (c2, 1) ] in
        let diags =
          Verify.Partition_check.check ~machine:m4x4e ~assignment:asg ~original rewritten
        in
        check Alcotest.bool "PT005" true (Verify.Diag.has_code "PT005" diags));
    case "PT006-bank-pressure" (fun () ->
        let tiny =
          Mach.Machine.make ~regs_per_bank:2 ~clusters:2 ~fus_per_cluster:8
            ~copy_model:Mach.Machine.Embedded ()
        in
        let d = vreg 103 and e = vreg 104 in
        let loop =
          Ir.Loop.make ~name:"t"
            [ load ~id:0 a "x"; load ~id:1 b "y"; load ~id:2 c "z";
              add ~id:3 d a b; add ~id:4 e d c; store ~id:5 e "w" ]
        in
        let asg = assign [ (a, 0); (b, 0); (c, 0); (d, 0); (e, 0) ] in
        let diags = Verify.Partition_check.check ~machine:tiny ~assignment:asg loop in
        check Alcotest.bool "PT006" true (Verify.Diag.has_code "PT006" diags));
    case "PT001-mutated-real-partition" (fun () ->
        (* drop one register from a real pipeline's assignment *)
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        match Partition.Driver.pipeline ~machine:m4x4e loop with
        | Error e -> Alcotest.failf "pipeline failed: %s" (Verify.Stage_error.to_string e)
        | Ok r ->
            let rewritten = r.Partition.Driver.rewritten in
            let victim = Ir.Vreg.Set.min_elt (Ir.Loop.vregs rewritten) in
            let mutated = Ir.Vreg.Map.remove victim r.Partition.Driver.assignment in
            check Alcotest.bool "PT001" true
              (has_error_code "PT001"
                 (Verify.Partition_check.check ~machine:m4x4e ~assignment:mutated rewritten)));
  ]

let alloc_negative_tests =
  let code = [ add ~id:0 c a b; store ~id:1 c "z" ] in
  let live_out = Ir.Vreg.Set.empty in
  [
    case "AL001-unmapped-register" (fun () ->
        let m = mapping [ (a, (0, 0)); (b, (0, 1)) ] in
        check Alcotest.bool "AL001" true
          (has_error_code "AL001"
             (Verify.Alloc_check.check ~machine:m4x4e ~mapping:m ~live_out code)));
    case "AL002-invalid-bank" (fun () ->
        let m = mapping [ (a, (9, 0)); (b, (0, 1)); (c, (0, 2)) ] in
        check Alcotest.bool "AL002" true
          (has_error_code "AL002"
             (Verify.Alloc_check.check ~machine:m4x4e ~mapping:m ~live_out code)));
    case "AL003-index-out-of-range" (fun () ->
        let m = mapping [ (a, (0, 99)); (b, (0, 1)); (c, (0, 2)) ] in
        check Alcotest.bool "AL003" true
          (has_error_code "AL003"
             (Verify.Alloc_check.check ~machine:m4x4e ~mapping:m ~live_out code)));
    case "AL004-shared-physical-register" (fun () ->
        (* a and b are simultaneously live into the add but share (0,0) *)
        let m = mapping [ (a, (0, 0)); (b, (0, 0)); (c, (0, 1)) ] in
        check Alcotest.bool "AL004" true
          (has_error_code "AL004"
             (Verify.Alloc_check.check ~machine:m4x4e ~mapping:m ~live_out code)));
    case "AL005-contradicts-partition" (fun () ->
        let m = mapping [ (a, (0, 0)); (b, (0, 1)); (c, (0, 2)) ] in
        let asg = assign [ (a, 1); (b, 0); (c, 0) ] in
        check Alcotest.bool "AL005" true
          (has_error_code "AL005"
             (Verify.Alloc_check.check ~machine:m4x4e ~assignment:asg ~mapping:m ~live_out code)));
    case "AL004-mutated-real-allocation" (fun () ->
        (* collapse two distinct physical registers of a real allocation *)
        let loop = Workload.Kernels.dot ~unroll:1 in
        match Partition.Driver.pipeline ~machine:m4x4e loop with
        | Error e -> Alcotest.failf "pipeline failed: %s" (Verify.Stage_error.to_string e)
        | Ok r -> (
            match
              Regalloc.Alloc.allocate_loop ~machine:m4x4e
                ~assignment:r.Partition.Driver.assignment r.Partition.Driver.rewritten
            with
            | Error msg -> Alcotest.failf "allocation failed: %s" (Verify.Stage_error.to_string msg)
            | Ok alloc ->
                (* remap every register onto physical slot 0 of its bank *)
                let squashed =
                  Ir.Vreg.Map.map (fun (bank, _) -> (bank, 0)) alloc.Regalloc.Alloc.mapping
                in
                let diags =
                  Verify.Alloc_check.check ~machine:m4x4e ~mapping:squashed
                    ~live_out:alloc.Regalloc.Alloc.live_out alloc.Regalloc.Alloc.code
                in
                check Alcotest.bool "AL004" true (has_error_code "AL004" diags)));
  ]

(* ------------------------------------------------------------------ *)
(* Dense Verify.Live against the register-set pass it replaced         *)
(* ------------------------------------------------------------------ *)

let live_ref ops ~live_out =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let sets = Array.make (n + 1) live_out in
  for i = n - 1 downto 0 do
    let op = arr.(i) in
    let after = sets.(i + 1) in
    let minus_defs =
      List.fold_left (fun s d -> Ir.Vreg.Set.remove d s) after (Ir.Op.defs op)
    in
    sets.(i) <-
      List.fold_left (fun s u -> Ir.Vreg.Set.add u s) minus_defs (Ir.Op.uses op)
  done;
  sets

let live_matches_reference loop =
  let ops = Ir.Loop.ops loop and live_out = Verify.Live.loop_live_out loop in
  let live = Verify.Live.backward ops ~live_out and want = live_ref ops ~live_out in
  Array.length live.Verify.Live.rows = Array.length want
  && Array.for_all Fun.id
       (Array.mapi (fun i s -> Ir.Vreg.Set.equal (Verify.Live.set live i) s) want)

let live_ref_tests =
  [
    case "suite-and-rewritten-bodies" (fun () ->
        List.iter
          (fun loop ->
            check Alcotest.bool (Ir.Loop.name loop) true (live_matches_reference loop);
            List.iter
              (fun clusters ->
                let machine =
                  Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded
                in
                match Partition.Driver.pipeline ~machine loop with
                | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
                | Ok r ->
                    check Alcotest.bool
                      (Ir.Loop.name loop ^ " on " ^ machine.Mach.Machine.name)
                      true
                      (live_matches_reference r.Partition.Driver.rewritten))
              [ 2; 4; 8 ])
          (Workload.Suite.loops ()));
    qcheck ~count:60 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor -> live_matches_reference (fst (Ir.Unroll.loop ~factor loop)))
          [ 1; 4 ]);
  ]

let suite =
  [
    ("verify.diag", diag_tests);
    ("verify.positive", positive_tests);
    ("verify.ir", ir_negative_tests);
    ("verify.sched", sched_negative_tests);
    ("verify.partition", partition_negative_tests);
    ("verify.alloc", alloc_negative_tests);
    ("verify.live-ref", live_ref_tests);
  ]
