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

(* ------------------------------------------------------------------ *)
(* Array-based structural checks against the table-based originals     *)
(* ------------------------------------------------------------------ *)

(* The original schedule check, kept verbatim as the oracle: cycles
   looked up with [cycle_of] list scans, capacity counted in
   tuple-keyed tables and reported in their fold order. *)
module Sched_check_ref = struct
  open Verify

  let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

  let coverage ~ddg placed =
    let scheduled = Hashtbl.create 32 in
    List.iter (fun (p : Sched.Schedule.placement) -> Hashtbl.replace scheduled (Ir.Op.id p.op) ())
      placed;
    let ddg_ids = Hashtbl.create 32 in
    List.iter (fun op -> Hashtbl.replace ddg_ids (Ir.Op.id op) ()) (Ddg.Graph.ops_in_order ddg);
    let missing =
      List.filter_map
        (fun op ->
          if Hashtbl.mem scheduled (Ir.Op.id op) then None
          else
            Some
              (Diag.error Diag.Sched ~code:"SCH001" ~loc:(op_loc op)
                 "operation is not scheduled"))
        (Ddg.Graph.ops_in_order ddg)
    in
    let foreign =
      List.filter_map
        (fun (p : Sched.Schedule.placement) ->
          if Hashtbl.mem ddg_ids (Ir.Op.id p.op) then None
          else
            Some
              (Diag.error Diag.Sched ~code:"SCH005" ~loc:(op_loc p.op)
                 "scheduled operation does not belong to the dependence graph"))
        placed
    in
    missing @ foreign

  (* Every edge: t(dst) - t(src) >= latency - ii * distance. A flat
     schedule is the ii = infinity case restricted to distance-0 edges. *)
  let edges ~graph ~ii cycle_of =
    List.rev
      (Graphlib.Digraph.fold_edges
         (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) acc ->
           match (cycle_of e.src, cycle_of e.dst) with
           | Some ts, Some td ->
               let need = Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label) in
               if td - ts >= need then acc
               else
                 Diag.error Diag.Sched ~code:"SCH002"
                   ~loc:(Printf.sprintf "edge %d->%d" e.src e.dst)
                   (Printf.sprintf "%s dependence violated: cycle %d - %d < %d"
                      (Ddg.Dep.to_string e.label) td ts need)
                 :: acc
           | None, _ | _, None -> acc (* reported by coverage *))
         graph [])

  (* Per-(cluster, normalized cycle) capacity counting. Specialized unit
     mixes use Hall's condition: each class's demand beyond its dedicated
     units must fit in the General pool. *)
  let resources ~machine ~normalize placed =
    let m : Mach.Machine.t = machine in
    let fu_slots = Hashtbl.create 64 in     (* (cluster, slot) -> fu ops *)
    let class_demand = Hashtbl.create 64 in (* (cluster, slot, class) -> ops *)
    let ports = Hashtbl.create 16 in        (* (cluster, slot) -> copies *)
    let busses = Hashtbl.create 16 in       (* slot -> copies *)
    let bad_cluster = ref [] in
    List.iter
      (fun (p : Sched.Schedule.placement) ->
        if not (Mach.Machine.valid_cluster m p.cluster) then
          bad_cluster :=
            Diag.error Diag.Sched ~code:"SCH004" ~loc:(op_loc p.op)
              (Printf.sprintf "placed on cluster %d of a %d-cluster machine" p.cluster
                 m.clusters)
            :: !bad_cluster
        else begin
          let slot = normalize p.cycle in
          let bump tbl key = Hashtbl.replace tbl key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          in
          match (m.copy_model, Ir.Op.is_copy p.op) with
          | Mach.Machine.Copy_unit, true ->
              bump ports (p.cluster, slot);
              bump busses slot
          | (Mach.Machine.Embedded | Mach.Machine.Copy_unit), _ ->
              bump fu_slots (p.cluster, slot);
              if not (Mach.Machine.is_general_only m) then
                List.iter
                  (fun fc -> bump class_demand (p.cluster, slot, fc))
                  (Mach.Machine.allowed_classes (Ir.Op.opcode p.op) (Ir.Op.cls p.op))
        end)
      placed;
    let over tbl cap what =
      Hashtbl.fold
        (fun key n acc ->
          if n <= cap then acc
          else
            Diag.error Diag.Sched ~code:"SCH003" ~loc:(what key)
              (Printf.sprintf "%d issued where capacity is %d" n cap)
            :: acc)
        tbl []
    in
    let fu_over =
      over fu_slots m.fus_per_cluster (fun (c, s) ->
          Printf.sprintf "functional units, cluster %d slot %d" c s)
    in
    let port_over =
      over ports m.copy_ports (fun (c, s) -> Printf.sprintf "copy ports, cluster %d slot %d" c s)
    in
    let bus_over = over busses m.busses (fun s -> Printf.sprintf "busses, slot %d" s) in
    let hall =
      if Mach.Machine.is_general_only m then []
      else begin
        let cap_of fc = Option.value ~default:0 (List.assoc_opt fc m.fu_mix) in
        let general = cap_of Mach.Machine.General in
        let by_slot = Hashtbl.create 32 in
        Hashtbl.iter
          (fun (c, s, fc) n ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_slot (c, s)) in
            Hashtbl.replace by_slot (c, s) ((fc, n) :: cur))
          class_demand;
        Hashtbl.fold
          (fun (c, s) demands acc ->
            let overflow =
              List.fold_left (fun acc (fc, n) -> acc + max 0 (n - cap_of fc)) 0 demands
            in
            if overflow <= general then acc
            else
              Diag.error Diag.Sched ~code:"SCH003"
                ~loc:(Printf.sprintf "specialized units, cluster %d slot %d" c s)
                (Printf.sprintf "class overflow %d exceeds %d general units" overflow general)
              :: acc)
          by_slot []
      end
    in
    !bad_cluster @ fu_over @ port_over @ bus_over @ hall

  let kernel ~machine ~ddg k =
    let placed = Sched.Kernel.placements k in
    let ii = Sched.Kernel.ii k in
    let cycle_of id = try Some (Sched.Kernel.cycle_of k id) with Not_found -> None in
    coverage ~ddg placed
    @ edges ~graph:(Ddg.Graph.graph ddg) ~ii cycle_of
    @ resources ~machine ~normalize:(fun c -> c mod ii) placed

  let flat ~machine ~ddg sched =
    let placed = Sched.Schedule.placements sched in
    let cycle_of id = try Some (Sched.Schedule.cycle_of sched id) with Not_found -> None in
    coverage ~ddg placed
    @ edges ~graph:(Ddg.Graph.loop_independent ddg) ~ii:0 cycle_of
    @ resources ~machine ~normalize:(fun c -> c) placed
end

(* The original partition check, kept verbatim as the oracle:
   assignment lookups per use, def-position lists, a tuple-keyed
   transfer table. *)
module Partition_check_ref = struct
  open Verify

  let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

  let bank_of assignment r = Ir.Vreg.Map.find_opt r assignment

  (* An operation executes where its destination lives; a store (or nop)
     where its first source lives; register-free ops default to bank 0. *)
  let cluster_of_op assignment op =
    match Ir.Op.dst op with
    | Some d -> bank_of assignment d
    | None -> ( match Ir.Op.srcs op with r :: _ -> bank_of assignment r | [] -> Some 0)

  let code_registers ops =
    List.fold_left
      (fun acc op ->
        List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc (Ir.Op.defs op @ Ir.Op.uses op))
      Ir.Vreg.Set.empty ops

  let coverage ~machine ~assignment ops =
    let m : Mach.Machine.t = machine in
    Ir.Vreg.Set.fold
      (fun r acc ->
        match bank_of assignment r with
        | None ->
            Diag.error Diag.Partition ~code:"PT001" ~loc:(Ir.Vreg.to_string r)
              "register has no bank assignment"
            :: acc
        | Some b when not (Mach.Machine.valid_cluster m b) ->
            Diag.error Diag.Partition ~code:"PT002" ~loc:(Ir.Vreg.to_string r)
              (Printf.sprintf "assigned to bank %d of a %d-bank machine" b m.clusters)
            :: acc
        | Some _ -> acc)
      (code_registers ops) []
    |> List.rev

  let locality ~assignment ops =
    List.concat_map
      (fun op ->
        if Ir.Op.is_copy op then []
        else
          match cluster_of_op assignment op with
          | None -> [] (* covered by PT001 *)
          | Some cluster ->
              List.filter_map
                (fun r ->
                  match bank_of assignment r with
                  | Some b when b <> cluster ->
                      Some
                        (Diag.error Diag.Partition ~code:"PT003" ~loc:(op_loc op)
                           (Printf.sprintf
                              "operand %s lives in bank %d but the operation executes on \
                               cluster %d"
                              (Ir.Vreg.to_string r) b cluster))
                  | _ -> None)
                (Ir.Op.uses op))
      ops

  let copy_shape ~assignment ops =
    List.concat_map
      (fun op ->
        if not (Ir.Op.is_copy op) then []
        else
          let malformed msg = [ Diag.error Diag.Partition ~code:"PT004" ~loc:(op_loc op) msg ] in
          match (Ir.Op.dst op, Ir.Op.srcs op) with
          | Some d, [ s ] -> (
              if Ir.Vreg.cls d <> Ir.Vreg.cls s then
                malformed "copy changes the register class"
              else
                match (bank_of assignment d, bank_of assignment s) with
                | Some bd, Some bs when bd = bs ->
                    malformed (Printf.sprintf "copy within bank %d moves nothing" bd)
                | _ -> [])
          | _ -> malformed "copy must read exactly one register and write one")
      ops

  (* Which value of register r does a use at body position q read?  The
     cache key of a minimal copy-reuse scheme is (register, consuming
     cluster, reaching value). *)
  type reaching = Invariant | Carried | Same_iter of int

  let minimal_copies ~assignment loop =
    let ops = Array.of_list (Ir.Loop.ops loop) in
    let def_positions = Hashtbl.create 32 in
    Array.iteri
      (fun i op ->
        List.iter
          (fun d ->
            let k = Ir.Vreg.id d in
            Hashtbl.replace def_positions k
              (Option.value ~default:[] (Hashtbl.find_opt def_positions k) @ [ i ]))
          (Ir.Op.defs op))
      ops;
    let classify r q =
      match Hashtbl.find_opt def_positions (Ir.Vreg.id r) with
      | None | Some [] -> Invariant
      | Some positions -> (
          match List.rev (List.filter (fun p -> p < q) positions) with
          | [] -> Carried
          | p :: _ -> Same_iter p)
    in
    let transfers = Hashtbl.create 16 in
    Array.iteri
      (fun q op ->
        match cluster_of_op assignment op with
        | None -> ()
        | Some cluster ->
            List.iter
              (fun r ->
                match bank_of assignment r with
                | Some b when b <> cluster ->
                    Hashtbl.replace transfers (Ir.Vreg.id r, cluster, classify r q) ()
                | _ -> ())
              (Ir.Op.uses op))
      ops;
    Hashtbl.length transfers

  let copy_minimality ~assignment ~original rewritten =
    let emitted = List.length (List.filter Ir.Op.is_copy (Ir.Loop.ops rewritten)) in
    let needed = minimal_copies ~assignment original in
    if emitted > needed then
      [
        Diag.warning Diag.Partition ~code:"PT005" ~loc:(Ir.Loop.name rewritten)
          (Printf.sprintf "%d copies emitted where %d cross-bank transfers suffice" emitted
             needed);
      ]
    else []

  let pressure ~machine ~assignment loop =
    let m : Mach.Machine.t = machine in
    let ops = Ir.Loop.ops loop in
    let live = Live.backward ops ~live_out:(Live.loop_live_out loop) in
    let bank =
      Array.init (Ir.Vreg.Dense.size live.Live.regs) (fun k ->
          match bank_of assignment (Ir.Vreg.Dense.reg live.Live.regs k) with
          | Some b when Mach.Machine.valid_cluster m b -> b
          | _ -> -1)
    in
    let worst = Array.make m.clusters 0 in
    let per_bank = Array.make m.clusters 0 in
    Array.iter
      (fun row ->
        Array.fill per_bank 0 m.clusters 0;
        Util.Bitrow.iter
          (fun k -> if bank.(k) >= 0 then per_bank.(bank.(k)) <- per_bank.(bank.(k)) + 1)
          row;
        Array.iteri (fun b n -> if n > worst.(b) then worst.(b) <- n) per_bank)
      live.Live.rows;
    let findings = ref [] in
    Array.iteri
      (fun b n ->
        if n > m.regs_per_bank then
          findings :=
            Diag.warning Diag.Partition ~code:"PT006" ~loc:(Printf.sprintf "bank %d" b)
              (Printf.sprintf "%d registers simultaneously live but the bank holds %d" n
                 m.regs_per_bank)
            :: !findings)
      worst;
    List.rev !findings

  let check ~machine ~assignment ?original rewritten =
    let ops = Ir.Loop.ops rewritten in
    coverage ~machine ~assignment ops
    @ locality ~assignment ops
    @ copy_shape ~assignment ops
    @ (match original with
      | Some o -> copy_minimality ~assignment ~original:o rewritten
      | None -> [])
    @ pressure ~machine ~assignment rewritten

  let check_block ~machine ~assignment block =
    let ops = Ir.Block.ops block in
    if ops = [] then []
    else
      coverage ~machine ~assignment ops
      @ locality ~assignment ops
      @ copy_shape ~assignment ops
end

(* Ladder artifacts of every suite loop on the paper's six
   configurations: the machine, the source loop and its DDG, the ideal
   kernel, the rewritten body, its DDG, assignment and clustered
   kernel, and a flat schedule of the rewritten body. *)
type artifacts = {
  machine : Mach.Machine.t;
  source : Ir.Loop.t;
  source_ddg : Ddg.Graph.t;
  ideal : Sched.Kernel.t;
  rewritten : Ir.Loop.t;
  ddg : Ddg.Graph.t;
  assignment : int Ir.Vreg.Map.t;
  kernel : Sched.Kernel.t;
  flat : Sched.Schedule.t;
}

let ladder_artifacts =
  lazy
    (List.concat_map
       (fun loop ->
         List.filter_map
           (fun (cfg : Core.Experiment.config) ->
             let machine = cfg.Core.Experiment.machine in
             match Partition.Driver.pipeline ~machine loop with
             | Error _ -> None
             | Ok r ->
                 let ddg = ddg_of machine r.Partition.Driver.rewritten in
                 let assignment = r.Partition.Driver.assignment in
                 Some
                   {
                     machine;
                     source = loop;
                     source_ddg = ddg_of machine loop;
                     ideal = r.Partition.Driver.ideal.Sched.Modulo.kernel;
                     rewritten = r.Partition.Driver.rewritten;
                     ddg;
                     assignment;
                     kernel = r.Partition.Driver.clustered.Sched.Modulo.kernel;
                     flat =
                       Sched.List_sched.schedule
                         ~cluster_of:(fun id ->
                           match Ir.Op.dst (Ddg.Graph.op ddg id) with
                           | Some d -> Option.value ~default:0 (Ir.Vreg.Map.find_opt d assignment)
                           | None -> 0)
                         ~machine ddg;
                   })
           Core.Experiment.paper_configs)
       (Workload.Suite.loops ()))

(* The same artifacts after one fire of each stage corruption the
   ladder's fault injection applies. *)
let tampered a ~seed =
  let armed =
    Robust.Inject.arm ~prng:(Util.Prng.create seed) Robust.Inject.recoverable
  in
  let h = armed.Robust.Inject.hooks in
  let machine = h.Robust.Driver.on_machine a.machine in
  {
    a with
    machine;
    kernel = h.Robust.Driver.on_kernel a.kernel;
    rewritten = h.Robust.Driver.on_rewritten a.rewritten;
    assignment = h.Robust.Driver.on_assignment a.assignment;
  }

(* Machines far smaller than the schedules were made for, so capacity
   findings pile up: one unit per cluster, one copy port, one bus, and
   a specialized mix whose Hall condition fails. *)
let squeezed (m : Mach.Machine.t) =
  [
    Mach.Machine.make ~name:"squeezed" ~copy_ports:1 ~busses:1 ~clusters:m.clusters
      ~fus_per_cluster:1 ~copy_model:m.copy_model ();
    Mach.Machine.make ~name:"typed" ~copy_ports:1 ~busses:1 ~clusters:m.clusters
      ~fus_per_cluster:2
      ~fu_mix:[ (Mach.Machine.Memory, 1); (Mach.Machine.General, 1) ]
      ~copy_model:m.copy_model ();
    Mach.Machine.make ~name:"ozer" ~clusters:m.clusters ~fus_per_cluster:4
      ~fu_mix:Mach.Machine.ozer_cluster_mix ~copy_model:m.copy_model ();
  ]

let same_diags what got want =
  if got <> want then
    Alcotest.failf "%s:\n  got  %s\n  want %s" what
      (String.concat "\n       " (List.map Verify.Diag.to_string got))
      (String.concat "\n       " (List.map Verify.Diag.to_string want))

let same_sched what a machine =
  same_diags (what ^ " kernel")
    (Verify.Sched_check.kernel ~machine ~ddg:a.ddg a.kernel)
    (Sched_check_ref.kernel ~machine ~ddg:a.ddg a.kernel);
  same_diags (what ^ " flat")
    (Verify.Sched_check.flat ~machine ~ddg:a.ddg a.flat)
    (Sched_check_ref.flat ~machine ~ddg:a.ddg a.flat)

let name_of a = Ir.Loop.name a.source ^ " on " ^ a.machine.Mach.Machine.name

let sched_check_ref_tests =
  [
    slow_case "ladder-artifacts" (fun () ->
        List.iter
          (fun a ->
            let ideal_m = Mach.Machine.monolithic_of a.machine in
            same_diags (name_of a ^ " ideal")
              (Verify.Sched_check.kernel ~machine:ideal_m ~ddg:a.source_ddg a.ideal)
              (Sched_check_ref.kernel ~machine:ideal_m ~ddg:a.source_ddg a.ideal);
            same_sched (name_of a) a a.machine)
          (Lazy.force ladder_artifacts));
    slow_case "tampered-artifacts" (fun () ->
        List.iteri
          (fun k a ->
            let t = tampered a ~seed:k in
            same_sched (name_of a ^ " tampered") t t.machine;
            (* A kernel checked against another body's DDG. *)
            same_sched (name_of a ^ " against the source DDG")
              { t with ddg = a.source_ddg } t.machine)
          (Lazy.force ladder_artifacts));
    case "sparse-op-ids" (fun () ->
        (* Ids far apart, so ops are looked up by bisection rather than
           in a table indexed by id. *)
        List.iter
          (fun loop ->
            let sparse =
              Ir.Loop.with_ops loop
                (List.map
                   (fun op -> Ir.Op.with_id op ((Ir.Op.id op + 1) * 1009))
                   (Ir.Loop.ops loop))
            in
            match Partition.Driver.pipeline ~machine:m4x4e sparse with
            | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
            | Ok r ->
                let ddg = ddg_of m4x4e r.Partition.Driver.rewritten in
                let kernel = r.Partition.Driver.clustered.Sched.Modulo.kernel in
                let flat = Sched.List_sched.ideal ~machine:m4x4e ddg in
                List.iter
                  (fun (what, ddg) ->
                    same_diags (Ir.Loop.name loop ^ what)
                      (Verify.Sched_check.kernel ~machine:m4x4e ~ddg kernel)
                      (Sched_check_ref.kernel ~machine:m4x4e ~ddg kernel);
                    same_diags (Ir.Loop.name loop ^ what ^ " flat")
                      (Verify.Sched_check.flat ~machine:m4x4e ~ddg flat)
                      (Sched_check_ref.flat ~machine:m4x4e ~ddg flat))
                  [ ("", ddg); (" against the dense-id DDG", ddg_of m4x4e loop) ])
          (sample_loops ~n:40 ()));
    slow_case "oversubscribed-machines" (fun () ->
        let seen = ref 0 in
        List.iteri
          (fun k a ->
            if k mod 3 = 0 then
            List.iter
              (fun m ->
                same_sched (name_of a ^ " on " ^ m.Mach.Machine.name) a m;
                seen :=
                  !seen
                  + List.length
                      (List.filter
                         (fun d -> d.Verify.Diag.code = "SCH003")
                         (Verify.Sched_check.flat ~machine:m ~ddg:a.ddg a.flat)))
              (squeezed a.machine
              @ [ Mach.Machine.paper_clustered ~clusters:2 ~copy_model:a.machine.copy_model ]))
          (Lazy.force ladder_artifacts);
        check Alcotest.bool "capacity findings were compared" true (!seen > 1000));
  ]

let same_partition what a =
  same_diags what
    (Verify.Partition_check.check ~machine:a.machine ~assignment:a.assignment
       ~original:a.source a.rewritten)
    (Partition_check_ref.check ~machine:a.machine ~assignment:a.assignment
       ~original:a.source a.rewritten);
  same_diags (what ^ " without the original")
    (Verify.Partition_check.check ~machine:a.machine ~assignment:a.assignment a.rewritten)
    (Partition_check_ref.check ~machine:a.machine ~assignment:a.assignment a.rewritten);
  let block = Ir.Block.make ~label:"b" (Ir.Loop.ops a.rewritten) in
  same_diags (what ^ " as a block")
    (Verify.Partition_check.check_block ~machine:a.machine ~assignment:a.assignment block)
    (Partition_check_ref.check_block ~machine:a.machine ~assignment:a.assignment block)

let partition_check_ref_tests =
  [
    slow_case "ladder-artifacts" (fun () ->
        List.iter (fun a -> same_partition (name_of a) a) (Lazy.force ladder_artifacts));
    slow_case "tampered-artifacts" (fun () ->
        List.iteri
          (fun k a ->
            let t = tampered a ~seed:k in
            same_partition (name_of a ^ " tampered") t;
            (* Banks out of range, registers without one, and a machine
               with fewer banks than the assignment uses. *)
            let regs = Ir.Loop.vregs a.rewritten in
            let wrecked =
              Ir.Vreg.Set.fold
                (fun r m ->
                  match Ir.Vreg.id r mod 5 with
                  | 0 -> Ir.Vreg.Map.remove r m
                  | 1 -> Ir.Vreg.Map.add r (a.machine.clusters + (Ir.Vreg.id r mod 3)) m
                  | 2 -> Ir.Vreg.Map.add r (-1) m
                  | _ -> m)
                regs t.assignment
            in
            same_partition (name_of a ^ " wrecked") { t with assignment = wrecked };
            same_partition (name_of a ^ " on 2 banks")
              {
                t with
                machine =
                  Mach.Machine.paper_clustered ~clusters:2 ~copy_model:a.machine.copy_model;
              })
          (Lazy.force ladder_artifacts));
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
    ("verify.sched-check-ref", sched_check_ref_tests);
    ("verify.partition-ref", partition_check_ref_tests);
  ]
