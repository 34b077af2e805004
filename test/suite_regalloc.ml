open Testlib

let f = Mach.Rclass.Float
let i = Mach.Rclass.Int

let straightline () =
  (* r1 = load x; r2 = load y; r3 = r1+r2; store z, r3 *)
  let b = Ir.Builder.create () in
  let r1 = Ir.Builder.load b f (Ir.Addr.scalar "x") in
  let r2 = Ir.Builder.load b f (Ir.Addr.scalar "y") in
  let r3 = Ir.Builder.binop b Mach.Opcode.Add f r1 r2 in
  Ir.Builder.store b f (Ir.Addr.scalar "z") r3;
  (Ir.Builder.func b ~name:"sl" ~edges:[], r1, r2, r3)

let liveness_tests =
  [
    case "backward-basic" (fun () ->
        let fn, r1, r2, r3 = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let live = Regalloc.Liveness.backward ops ~live_out:Ir.Vreg.Set.empty in
        (* before the add: r1 r2 live; before the store: r3 live *)
        check Alcotest.bool "r1 live before add" true (Ir.Vreg.Set.mem r1 live.(2));
        check Alcotest.bool "r2 live before add" true (Ir.Vreg.Set.mem r2 live.(2));
        check Alcotest.bool "r3 live before store" true (Ir.Vreg.Set.mem r3 live.(3));
        check Alcotest.bool "r1 dead before store" false (Ir.Vreg.Set.mem r1 live.(3));
        check Alcotest.bool "nothing live at entry" true (Ir.Vreg.Set.is_empty live.(0)));
    case "live-out-propagates" (fun () ->
        let fn, r1, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let live = Regalloc.Liveness.backward ops ~live_out:(Ir.Vreg.Set.singleton r1) in
        (* r1 stays live through the whole tail *)
        check Alcotest.bool "r1 live before store" true (Ir.Vreg.Set.mem r1 live.(3)));
    case "loop-live-out-includes-carried-and-invariants" (fun () ->
        let loop = Workload.Kernels.dot ~unroll:1 in
        let lo = Regalloc.Liveness.loop_live_out loop in
        (* the accumulator s (carried + declared) is live out *)
        check Alcotest.bool "s" true
          (Ir.Vreg.Set.exists (fun r -> Ir.Vreg.to_string r = "s") lo));
    case "func-liveness-dataflow" (fun () ->
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.scalar "in") in
        Ir.Builder.start_block b "use";
        Ir.Builder.store b f (Ir.Addr.scalar "out") x;
        let fn = Ir.Builder.func b ~name:"t" ~edges:[ ("entry", "use") ] in
        let lo = Regalloc.Liveness.func_live_out fn in
        check Alcotest.bool "x live out of entry" true (Ir.Vreg.Set.mem x (lo "entry"));
        check Alcotest.bool "nothing out of use" true (Ir.Vreg.Set.is_empty (lo "use")));
  ]

let interference_tests =
  [
    case "parallel-values-interfere" (fun () ->
        let fn, r1, r2, r3 = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        check Alcotest.bool "r1-r2" true (Regalloc.Interference.interferes g r1 r2);
        check Alcotest.bool "r1-r3 disjoint" false (Regalloc.Interference.interferes g r1 r3));
    case "copy-source-exempt" (fun () ->
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.scalar "x") in
        let y = Ir.Builder.copy b x in
        Ir.Builder.store b f (Ir.Addr.scalar "o1") x;
        Ir.Builder.store b f (Ir.Addr.scalar "o2") y;
        let fn = Ir.Builder.func b ~name:"t" ~edges:[] in
        let g =
          Regalloc.Interference.build (Ir.Block.ops (Ir.Func.entry fn))
            ~live_out:Ir.Vreg.Set.empty
        in
        (* x is live across the copy, but Chaitin's move exemption skips
           the edge from the copy's def *)
        check Alcotest.bool "x-y no edge from copy" false
          (Regalloc.Interference.interferes g x y));
    case "filtered-ignores-other-banks" (fun () ->
        let fn, r1, r2, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let keep r = Ir.Vreg.equal r r1 in
        let g = Regalloc.Interference.build_filtered ~keep ops ~live_out:Ir.Vreg.Set.empty in
        check Alcotest.bool "r2 absent" false
          (List.exists (Ir.Vreg.equal r2) (Regalloc.Interference.registers g)));
    case "pressure-bound" (fun () ->
        let fn, _, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        check Alcotest.int "max 2 live" 2 (Regalloc.Interference.max_clique_lower_bound g));
    case "occurrences-counted" (fun () ->
        let fn, r1, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        (* r1: one def + one use *)
        check Alcotest.int "r1 occ" 2 (Regalloc.Interference.occurrences g r1));
  ]

let color_tests =
  [
    case "two-colors-suffice-for-path" (fun () ->
        let fn, _, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        let r = Regalloc.Color.color ~k:2 g in
        check Alcotest.int "no spills" 0 (List.length r.Regalloc.Color.spilled);
        check Alcotest.bool "valid" true (Regalloc.Color.check g r.Regalloc.Color.colors = Ok ()));
    case "k1-forces-spill-on-clique" (fun () ->
        let fn, _, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        let r = Regalloc.Color.color ~k:1 g in
        check Alcotest.bool "spills" true (r.Regalloc.Color.spilled <> []));
    case "precolored-respected" (fun () ->
        let fn, r1, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let g = Regalloc.Interference.build ops ~live_out:Ir.Vreg.Set.empty in
        let pre = Ir.Vreg.Map.singleton r1 1 in
        let r = Regalloc.Color.color ~precolored:pre ~k:4 g in
        check Alcotest.(option int) "kept" (Some 1)
          (Ir.Vreg.Map.find_opt r1 r.Regalloc.Color.colors);
        check Alcotest.bool "valid" true (Regalloc.Color.check g r.Regalloc.Color.colors = Ok ()));
    case "precolor-out-of-range-rejected" (fun () ->
        let g = Regalloc.Interference.build [] ~live_out:(Ir.Vreg.Set.singleton (vreg 1)) in
        check Alcotest.bool "raises" true
          (try
             ignore (Regalloc.Color.color ~precolored:(Ir.Vreg.Map.singleton (vreg 1) 5) ~k:2 g);
             false
           with Invalid_argument _ -> true));
    qcheck ~count:50 "coloring-always-valid-on-loop-bodies" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let g =
          Regalloc.Interference.build (Ir.Loop.ops loop)
            ~live_out:(Regalloc.Liveness.loop_live_out loop)
        in
        let r = Regalloc.Color.color ~k:24 g in
        Regalloc.Color.check g r.Regalloc.Color.colors = Ok ());
    qcheck ~count:50 "optimism-never-spills-below-pressure" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let g =
          Regalloc.Interference.build (Ir.Loop.ops loop)
            ~live_out:(Regalloc.Liveness.loop_live_out loop)
        in
        let k = max 1 (Regalloc.Interference.max_clique_lower_bound g) in
        (* with k = pressure, an interval-like graph colours or spills;
           with k = pressure * 2 it must not spill more than ever *)
        let r = Regalloc.Color.color ~k:(2 * k) g in
        Regalloc.Color.check g r.Regalloc.Color.colors = Ok ());
  ]

let spill_tests =
  [
    case "rewrite-preserves-semantics" (fun () ->
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b i (Ir.Addr.scalar "x") in
        let y = Ir.Builder.binop b Mach.Opcode.Add i x x in
        let z = Ir.Builder.binop b Mach.Opcode.Mul i y x in
        Ir.Builder.store b i (Ir.Addr.scalar "o") z;
        let fn = Ir.Builder.func b ~name:"t" ~edges:[] in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let rw =
          Regalloc.Spill.rewrite ~spilled:[ x; y ] ~fresh_vreg:100 ~fresh_op:100 ops
        in
        let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
        Ir.Eval.set_mem sa ~base:"x" ~index:0 (Ir.Eval.I 21);
        Ir.Eval.set_mem sb ~base:"x" ~index:0 (Ir.Eval.I 21);
        Ir.Eval.run_ops sa ops;
        Ir.Eval.run_ops sb rw.Regalloc.Spill.ops;
        check Alcotest.bool "o equal" true
          (Ir.Eval.value_equal
             (Ir.Eval.get_mem sa ~base:"o" ~index:0)
             (Ir.Eval.get_mem sb ~base:"o" ~index:0)));
    case "spilled-regs-have-short-ranges" (fun () ->
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b i (Ir.Addr.scalar "x") in
        let y = Ir.Builder.binop b Mach.Opcode.Add i x x in
        Ir.Builder.store b i (Ir.Addr.scalar "o") y;
        let fn = Ir.Builder.func b ~name:"t" ~edges:[] in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let rw = Regalloc.Spill.rewrite ~spilled:[ x ] ~fresh_vreg:100 ~fresh_op:100 ops in
        (* x itself no longer appears *)
        List.iter
          (fun op ->
            List.iter
              (fun r ->
                check Alcotest.bool "x gone" false (Ir.Vreg.equal r x))
              (Ir.Op.defs op @ Ir.Op.uses op))
          rw.Regalloc.Spill.ops);
    case "temps-reported" (fun () ->
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b i (Ir.Addr.scalar "x") in
        Ir.Builder.store b i (Ir.Addr.scalar "o") x;
        let fn = Ir.Builder.func b ~name:"t" ~edges:[] in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let rw = Regalloc.Spill.rewrite ~spilled:[ x ] ~fresh_vreg:50 ~fresh_op:50 ops in
        check Alcotest.int "2 temps (def + use)" 2 (List.length rw.Regalloc.Spill.temps);
        List.iter
          (fun (_, orig) -> check Alcotest.bool "orig is x" true (Ir.Vreg.equal orig x))
          rw.Regalloc.Spill.temps);
  ]

let alloc_tests =
  [
    case "suite-loops-allocate-without-spills-at-32" (fun () ->
        List.iter
          (fun loop ->
            let g = Rcg.Build.of_loop ~machine:ideal16 loop in
            let a = Partition.Greedy.partition ~banks:4 g in
            let ins = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
            match
              Regalloc.Alloc.allocate_loop ~machine:m4x4e
                ~assignment:ins.Partition.Copies.assignment ins.Partition.Copies.loop
            with
            | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) (Verify.Stage_error.to_string e)
            | Ok r ->
                check Alcotest.int (Ir.Loop.name loop ^ " no spills") 0
                  r.Regalloc.Alloc.spill_count;
                check Alcotest.bool "check passes" true
                  (Regalloc.Alloc.check ~machine:m4x4e r = Ok ()))
          (sample_loops ~n:16 ()));
    case "tiny-bank-forces-spills-then-succeeds" (fun () ->
        let machine =
          Mach.Machine.make ~regs_per_bank:3 ~clusters:1 ~fus_per_cluster:16
            ~copy_model:Mach.Machine.Embedded ()
        in
        let loop = Workload.Kernels.hydro ~unroll:2 in
        let a =
          Partition.Assign.of_list
            (List.map (fun r -> (r, 0)) (Ir.Vreg.Set.elements (Ir.Loop.vregs loop)))
        in
        match Regalloc.Alloc.allocate_loop ~machine ~assignment:a loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            check Alcotest.bool "spilled" true (r.Regalloc.Alloc.spill_count > 0);
            check Alcotest.bool "valid" true (Regalloc.Alloc.check ~machine r = Ok ()));
    case "impossibly-small-bank-errors" (fun () ->
        let machine =
          Mach.Machine.make ~regs_per_bank:1 ~clusters:1 ~fus_per_cluster:16
            ~copy_model:Mach.Machine.Embedded ()
        in
        let loop = Workload.Kernels.cmul ~unroll:2 in
        let a =
          Partition.Assign.of_list
            (List.map (fun r -> (r, 0)) (Ir.Vreg.Set.elements (Ir.Loop.vregs loop)))
        in
        check Alcotest.bool "errors" true
          (match Regalloc.Alloc.allocate_loop ~machine ~assignment:a loop with
          | Error _ -> true
          | Ok _ -> false));
    case "unassigned-register-reported" (fun () ->
        let loop = Workload.Kernels.vcopy ~unroll:1 in
        check Alcotest.bool "error mentions register" true
          (match
             Regalloc.Alloc.allocate_loop ~machine:m4x4e
               ~assignment:(Partition.Assign.of_list []) loop
           with
          | Error e -> e.Verify.Stage_error.code = "AL001"
          | Ok _ -> false));
    case "mapping-respects-banks" (fun () ->
        let loop = Workload.Kernels.stencil3 ~unroll:2 in
        let g = Rcg.Build.of_loop ~machine:ideal16 loop in
        let a = Partition.Greedy.partition ~banks:4 g in
        let ins = Partition.Copies.insert_loop ~machine:m4x4e ~assignment:a loop in
        match
          Regalloc.Alloc.allocate_loop ~machine:m4x4e
            ~assignment:ins.Partition.Copies.assignment ins.Partition.Copies.loop
        with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            Ir.Vreg.Map.iter
              (fun reg (bank, _) ->
                check Alcotest.int (Ir.Vreg.to_string reg)
                  (Partition.Assign.bank ins.Partition.Copies.assignment reg) bank)
              r.Regalloc.Alloc.mapping);
    case "spilled-pipeline-still-correct" (fun () ->
        (* allocate with a tiny bank, then execute the spill-rewritten code *)
        let machine =
          Mach.Machine.make ~regs_per_bank:3 ~clusters:1 ~fus_per_cluster:16
            ~copy_model:Mach.Machine.Embedded ()
        in
        let loop = Workload.Kernels.stencil3 ~unroll:1 in
        let a =
          Partition.Assign.of_list
            (List.map (fun r -> (r, 0)) (Ir.Vreg.Set.elements (Ir.Loop.vregs loop)))
        in
        match Regalloc.Alloc.allocate_loop ~machine ~assignment:a loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r ->
            let rewritten = Ir.Loop.with_ops loop r.Regalloc.Alloc.code in
            let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
            seed_state sa loop;
            seed_state sb loop;
            (* spilled live-ins are read from their slots: materialize them *)
            Ir.Vreg.Set.iter
              (fun inv ->
                Ir.Eval.set_mem sb ~base:(Regalloc.Spill.slot_base inv) ~index:0
                  (Ir.Eval.get_reg sb inv))
              (Ir.Loop.invariants loop);
            Ir.Eval.run_loop sa ~trips:4 loop;
            Ir.Eval.run_loop sb ~trips:4 rewritten;
            (* compare non-spill memory *)
            let strip st =
              List.filter
                (fun (base, _, _) -> not (String.length base > 5 && String.sub base 0 5 = "spill"))
                (Ir.Eval.mem_snapshot st)
            in
            check Alcotest.bool "memory equal" true (strip sa = strip sb));
  ]

let linear_scan_tests =
  [
    case "simple-allocation" (fun () ->
        let fn, _, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let r = Regalloc.Linear_scan.allocate ~k:2 ops ~live_out:Ir.Vreg.Set.empty in
        check Alcotest.int "no spills" 0 (List.length r.Regalloc.Linear_scan.spilled);
        check Alcotest.bool "valid" true (Regalloc.Linear_scan.check r);
        check Alcotest.int "uses 2" 2 r.Regalloc.Linear_scan.used);
    case "k1-spills" (fun () ->
        let fn, _, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let r = Regalloc.Linear_scan.allocate ~k:1 ops ~live_out:Ir.Vreg.Set.empty in
        check Alcotest.bool "spills" true (r.Regalloc.Linear_scan.spilled <> []);
        check Alcotest.bool "still valid" true (Regalloc.Linear_scan.check r));
    case "live-out-extends-interval" (fun () ->
        let fn, r1, _, _ = straightline () in
        let ops = Ir.Block.ops (Ir.Func.entry fn) in
        let ivs = Regalloc.Linear_scan.intervals_of ops ~live_out:(Ir.Vreg.Set.singleton r1) in
        let iv = List.find (fun i -> Ir.Vreg.equal i.Regalloc.Linear_scan.reg r1) ivs in
        check Alcotest.int "to the end" (List.length ops) iv.Regalloc.Linear_scan.stop);
    qcheck ~count:50 "valid-and-never-beats-chaitin" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ops = Ir.Loop.ops loop in
        let live_out = Regalloc.Liveness.loop_live_out loop in
        let ls = Regalloc.Linear_scan.allocate ~k:512 ops ~live_out in
        let g = Regalloc.Interference.build ops ~live_out in
        let cb = Regalloc.Color.color ~k:512 g in
        let cb_used =
          Ir.Vreg.Map.fold (fun _ c acc -> max acc (c + 1)) cb.Regalloc.Color.colors 0
        in
        Regalloc.Linear_scan.check ls
        && ls.Regalloc.Linear_scan.spilled = []
        && ls.Regalloc.Linear_scan.used >= cb_used);
  ]

(* ------------------------------------------------------------------ *)
(* Dense step 5 against the Set/Hashtbl allocator it replaced          *)
(* ------------------------------------------------------------------ *)

(* The original liveness, interference and colouring, verbatim, and the
   round loop of [Alloc.allocate] over them (without tracing). *)
module Alloc_ref = struct
  module Liveness = struct
    let def_use op =
      let defs = List.fold_left (fun s r -> Ir.Vreg.Set.add r s) Ir.Vreg.Set.empty (Ir.Op.defs op) in
      let uses = List.fold_left (fun s r -> Ir.Vreg.Set.add r s) Ir.Vreg.Set.empty (Ir.Op.uses op) in
      (defs, uses)

    let backward ops ~live_out =
      let arr = Array.of_list ops in
      let n = Array.length arr in
      let live = Array.make (n + 1) live_out in
      for i = n - 1 downto 0 do
        let defs, uses = def_use arr.(i) in
        live.(i) <- Ir.Vreg.Set.union uses (Ir.Vreg.Set.diff live.(i + 1) defs)
      done;
      Array.sub live 0 n
  end

  module Interference = struct
    type t = {
      adj : (int, Ir.Vreg.Set.t) Hashtbl.t;
      regs : (int, Ir.Vreg.t) Hashtbl.t;
      occ : (int, int) Hashtbl.t;
      pressure : int;
    }

    let add_node t r =
      let id = Ir.Vreg.id r in
      if not (Hashtbl.mem t.adj id) then Hashtbl.replace t.adj id Ir.Vreg.Set.empty;
      Hashtbl.replace t.regs id r

    let add_edge t a b =
      if not (Ir.Vreg.equal a b) then begin
        add_node t a;
        add_node t b;
        Hashtbl.replace t.adj (Ir.Vreg.id a) (Ir.Vreg.Set.add b (Hashtbl.find t.adj (Ir.Vreg.id a)));
        Hashtbl.replace t.adj (Ir.Vreg.id b) (Ir.Vreg.Set.add a (Hashtbl.find t.adj (Ir.Vreg.id b)))
      end

    let bump_occ t r =
      let id = Ir.Vreg.id r in
      Hashtbl.replace t.occ id (1 + Option.value ~default:0 (Hashtbl.find_opt t.occ id))

    let build_filtered ~keep ops ~live_out =
      let t = { adj = Hashtbl.create 64; regs = Hashtbl.create 64; occ = Hashtbl.create 64;
                pressure = 0 }
      in
      let live_before = Liveness.backward ops ~live_out in
      let arr = Array.of_list ops in
      let n = Array.length arr in
      let live_after i = if i + 1 < n then live_before.(i + 1) else live_out in
      Ir.Vreg.Set.iter (fun r -> if keep r then add_node t r) live_out;
      if n > 0 then begin
        let entry = Ir.Vreg.Set.filter keep live_before.(0) in
        Ir.Vreg.Set.iter
          (fun a -> Ir.Vreg.Set.iter (fun b -> add_edge t a b) entry)
          entry
      end;
      let pressure = ref 0 in
      for i = 0 to n - 1 do
        let op = arr.(i) in
        List.iter (fun r -> if keep r then (add_node t r; bump_occ t r)) (Ir.Op.defs op);
        List.iter (fun r -> if keep r then (add_node t r; bump_occ t r)) (Ir.Op.uses op);
        let after = Ir.Vreg.Set.filter keep (live_after i) in
        pressure := max !pressure (Ir.Vreg.Set.cardinal (Ir.Vreg.Set.filter keep live_before.(i)));
        let exempt =
          if Ir.Op.is_copy op then
            match Ir.Op.srcs op with s :: _ -> Some s | [] -> None
          else None
        in
        List.iter
          (fun d ->
            if keep d then
              Ir.Vreg.Set.iter
                (fun l ->
                  let is_exempt = match exempt with Some s -> Ir.Vreg.equal s l | None -> false in
                  if not is_exempt then add_edge t d l)
                after)
          (Ir.Op.defs op)
      done;
      { t with pressure = !pressure }

    let registers t =
      Hashtbl.fold (fun _ r acc -> r :: acc) t.regs [] |> List.sort Ir.Vreg.compare

    let neighbors t r =
      match Hashtbl.find_opt t.adj (Ir.Vreg.id r) with
      | Some s -> Ir.Vreg.Set.elements s
      | None -> []

    let degree t r = List.length (neighbors t r)

    let occurrences t r = Option.value ~default:0 (Hashtbl.find_opt t.occ (Ir.Vreg.id r))

    let max_clique_lower_bound t = t.pressure
  end

  module Color = struct
    type result = { colors : int Ir.Vreg.Map.t; spilled : Ir.Vreg.t list }

    let default_cost g r =
      let d = max 1 (Interference.degree g r) in
      float_of_int (Interference.occurrences g r) /. float_of_int d

    let color ?cost ?(precolored = Ir.Vreg.Map.empty) ~k g =
      if k < 1 then invalid_arg "Color.color: k must be >= 1";
      Ir.Vreg.Map.iter
        (fun r c ->
          if c < 0 || c >= k then
            invalid_arg (Printf.sprintf "Color.color: precolour %d out of range for %s" c
                           (Ir.Vreg.to_string r)))
        precolored;
      let cost = match cost with Some f -> f | None -> default_cost g in
      let nodes = List.filter (fun r -> not (Ir.Vreg.Map.mem r precolored)) (Interference.registers g) in
      let removed = Hashtbl.create 64 in
      let live_degree r =
        List.length
          (List.filter (fun m -> not (Hashtbl.mem removed (Ir.Vreg.id m))) (Interference.neighbors g r))
      in
      let stack = ref [] in
      let remaining = ref nodes in
      while !remaining <> [] do
        let low, high =
          List.partition (fun r -> live_degree r < k) !remaining
        in
        match low with
        | r :: _ ->
            Hashtbl.replace removed (Ir.Vreg.id r) ();
            stack := r :: !stack;
            remaining := List.filter (fun m -> not (Ir.Vreg.equal m r)) !remaining
        | [] ->
            (* Optimistic push of the cheapest spill candidate. *)
            let victim =
              List.fold_left
                (fun best r ->
                  match best with
                  | None -> Some r
                  | Some b -> if cost r < cost b then Some r else best)
                None high
            in
            (match victim with
            | Some r ->
                Hashtbl.replace removed (Ir.Vreg.id r) ();
                stack := r :: !stack;
                remaining := List.filter (fun m -> not (Ir.Vreg.equal m r)) !remaining
            | None -> assert false)
      done;
      (* Select phase. *)
      let colors = ref precolored in
      let spilled = ref [] in
      List.iter
        (fun r ->
          let used =
            List.filter_map (fun m -> Ir.Vreg.Map.find_opt m !colors) (Interference.neighbors g r)
          in
          let rec first_free c = if List.mem c used then first_free (c + 1) else c in
          let c = first_free 0 in
          if c < k then colors := Ir.Vreg.Map.add r c !colors else spilled := r :: !spilled)
        !stack;
      { colors = !colors; spilled = List.rev !spilled }
  end

  let code_registers ops =
    List.fold_left
      (fun acc op ->
        List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc (Ir.Op.defs op @ Ir.Op.uses op))
      Ir.Vreg.Set.empty ops

  let allocate ?(max_rounds = 8) ?(subject = "code") ~machine ~assignment ~live_out ops =
    let m : Mach.Machine.t = machine in
    let banks = m.clusters in
    let k = m.regs_per_bank in
    let fail ?code message =
      Error (Verify.Stage_error.make ?code ~stage:Verify.Stage_error.Allocation ~subject message)
    in
    let missing =
      Ir.Vreg.Set.filter
        (fun r -> Partition.Assign.bank_opt assignment r = None)
        (code_registers ops)
    in
    if not (Ir.Vreg.Set.is_empty missing) then
      fail ~code:"AL001"
        (Printf.sprintf "unassigned registers: %s"
           (String.concat ", "
              (List.map Ir.Vreg.to_string (Ir.Vreg.Set.elements missing))))
    else begin
      let irreducible =
        List.find_map
          (fun op ->
            let uses = List.sort_uniq Ir.Vreg.compare (Ir.Op.uses op) in
            let per_bank = Hashtbl.create 4 in
            List.iter
              (fun r ->
                let b = Partition.Assign.bank assignment r in
                Hashtbl.replace per_bank b
                  (1 + Option.value ~default:0 (Hashtbl.find_opt per_bank b)))
              uses;
            Hashtbl.fold
              (fun b n acc -> if n > k && acc = None then Some (op, b, n) else acc)
              per_bank None)
          ops
      in
      match irreducible with
      | Some (op, b, n) ->
          fail
            (Printf.sprintf
               "bank %d pressure is irreducible: %s reads %d distinct bank-%d registers \
                but the bank holds %d"
               b (Ir.Op.to_string op) n b k)
      | None ->
      let rec round ops assignment ~live_out spill_count n =
        if n > max_rounds then
          fail
            (Printf.sprintf "still spilling after %d round(s) (%d registers spilled so far)"
               max_rounds spill_count)
        else begin
          let pressure = Array.make banks 0 in
          let results =
            List.init banks (fun b ->
                let keep r = Partition.Assign.bank_opt assignment r = Some b in
                let g = Interference.build_filtered ~keep ops ~live_out in
                pressure.(b) <- Interference.max_clique_lower_bound g;
                (b, Color.color ~k g))
          in
          let spilled = List.concat_map (fun (_, (r : Color.result)) -> r.spilled) results in
          if spilled = [] then begin
            let mapping =
              List.fold_left
                (fun acc (b, (r : Color.result)) ->
                  Ir.Vreg.Map.fold
                    (fun reg c acc -> Ir.Vreg.Map.add reg (b, c) acc)
                    r.Color.colors acc)
                Ir.Vreg.Map.empty results
            in
            Ok
              {
                Regalloc.Alloc.code = ops; mapping; assignment; spill_count; rounds = n; pressure;
                live_out;
              }
          end
          else begin
            let fresh_vreg =
              1 + Ir.Vreg.Set.fold (fun r acc -> max acc (Ir.Vreg.id r)) (code_registers ops) 0
            in
            let fresh_op = 1 + List.fold_left (fun acc op -> max acc (Ir.Op.id op)) 0 ops in
            let rw = Regalloc.Spill.rewrite ~spilled ~fresh_vreg ~fresh_op ops in
            let assignment =
              List.fold_left
                (fun acc (tmp, orig) ->
                  Ir.Vreg.Map.add tmp (Partition.Assign.bank acc orig) acc)
                assignment rw.Regalloc.Spill.temps
            in
            let live_out =
              List.fold_left (fun acc r -> Ir.Vreg.Set.remove r acc) live_out spilled
            in
            round rw.Regalloc.Spill.ops assignment ~live_out
              (spill_count + List.length spilled)
              (n + 1)
          end
        end
      in
      round ops assignment ~live_out 0 1
    end

  let loop_live_out loop =
    let ops = Ir.Loop.ops loop in
    let arr = Array.of_list ops in
    let defined_before = Hashtbl.create 32 in
    let carried = ref Ir.Vreg.Set.empty in
    let defined_anywhere =
      List.fold_left
        (fun s op -> List.fold_left (fun s d -> Ir.Vreg.Set.add d s) s (Ir.Op.defs op))
        Ir.Vreg.Set.empty ops
    in
    Array.iter
      (fun op ->
        List.iter
          (fun u ->
            if
              Ir.Vreg.Set.mem u defined_anywhere
              && not (Hashtbl.mem defined_before (Ir.Vreg.id u))
            then carried := Ir.Vreg.Set.add u !carried)
          (Ir.Op.uses op);
        List.iter (fun d -> Hashtbl.replace defined_before (Ir.Vreg.id d) ()) (Ir.Op.defs op))
      arr;
    Ir.Vreg.Set.union
      (Ir.Loop.live_out loop)
      (Ir.Vreg.Set.union !carried (Ir.Loop.invariants loop))

  let allocate_loop ?max_rounds ~machine ~assignment loop =
    allocate ?max_rounds ~subject:(Ir.Loop.name loop) ~machine ~assignment
      ~live_out:(loop_live_out loop) (Ir.Loop.ops loop)
end

(* The whole [Alloc.t] (mapping bindings with their register records),
   or the whole error. *)
let alloc_diff (got : (Regalloc.Alloc.t, Verify.Stage_error.t) result) want =
  match (got, want) with
  | Ok a, Ok b ->
      let fields =
        [
          ("code", a.Regalloc.Alloc.code = b.Regalloc.Alloc.code);
          ( "mapping",
            Ir.Vreg.Map.bindings a.Regalloc.Alloc.mapping
            = Ir.Vreg.Map.bindings b.Regalloc.Alloc.mapping );
          ( "assignment",
            Ir.Vreg.Map.bindings a.Regalloc.Alloc.assignment
            = Ir.Vreg.Map.bindings b.Regalloc.Alloc.assignment );
          ("spill_count", a.Regalloc.Alloc.spill_count = b.Regalloc.Alloc.spill_count);
          ("rounds", a.Regalloc.Alloc.rounds = b.Regalloc.Alloc.rounds);
          ("pressure", a.Regalloc.Alloc.pressure = b.Regalloc.Alloc.pressure);
          ( "live_out",
            Ir.Vreg.Set.elements a.Regalloc.Alloc.live_out
            = Ir.Vreg.Set.elements b.Regalloc.Alloc.live_out );
        ]
      in
      List.filter_map (fun (f, same) -> if same then None else Some f) fields
  | Error e, Error e' -> if e = e' then [] else [ "error" ]
  | Ok _, Error e -> [ "reference failed: " ^ Verify.Stage_error.to_string e ]
  | Error e, Ok _ -> [ "failed: " ^ Verify.Stage_error.to_string e ]

let check_alloc what ~machine ~assignment loop =
  match
    alloc_diff
      (Regalloc.Alloc.allocate_loop ~machine ~assignment loop)
      (Alloc_ref.allocate_loop ~machine ~assignment loop)
  with
  | [] -> ()
  | diff -> Alcotest.failf "%s: %s differ" what (String.concat ", " diff)

let with_regs (m : Mach.Machine.t) regs =
  Mach.Machine.make ~regs_per_bank:regs ~clusters:m.clusters
    ~fus_per_cluster:m.fus_per_cluster ~copy_model:m.copy_model ()

(* Graphs and colourings of one body, node for node, at several k. *)
let graph_diff ~keep ops ~live_out =
  let g = Regalloc.Interference.build_filtered ~keep ops ~live_out in
  let r = Alloc_ref.Interference.build_filtered ~keep ops ~live_out in
  let regs = Alloc_ref.Interference.registers r in
  let same_colouring k =
    let a = Regalloc.Color.color ~k g and b = Alloc_ref.Color.color ~k r in
    Ir.Vreg.Map.bindings a.Regalloc.Color.colors = Ir.Vreg.Map.bindings b.Alloc_ref.Color.colors
    && a.Regalloc.Color.spilled = b.Alloc_ref.Color.spilled
  in
  let p = Alloc_ref.Interference.max_clique_lower_bound r in
  Regalloc.Interference.registers g = regs
  && List.for_all
       (fun x ->
         Regalloc.Interference.neighbors g x = Alloc_ref.Interference.neighbors r x
         && Regalloc.Interference.occurrences g x = Alloc_ref.Interference.occurrences r x)
       regs
  && Regalloc.Interference.max_clique_lower_bound g = p
  && List.for_all same_colouring [ 1; 2; 3; max 1 (p - 1); max 1 p ]

let alloc_ref_tests =
  [
    case "straight-line-edge-cases" (fun () ->
        (* Bodies whose live-out is the widest point (pressure is taken
           before each op only), an empty body, a copy whose source
           stays live, and live-ins beyond the bank. *)
        let x = vreg 1 and y = vreg 2 and z = vreg 3 and a = vreg 4 and b = vreg 5 in
        let op ?dst ?(srcs = []) ?addr ~id opcode = Ir.Op.make ?dst ~srcs ?addr ~id ~opcode ~cls:f () in
        let load ~id d base = op ~dst:d ~addr:(Ir.Addr.scalar base) ~id Mach.Opcode.Load in
        let store ~id v base = op ~srcs:[ v ] ~addr:(Ir.Addr.scalar base) ~id Mach.Opcode.Store in
        let bodies =
          [
            ("load-live-out", [ load ~id:0 x "p" ], [ x ]);
            ("two-loads-live-out", [ load ~id:0 x "p"; load ~id:1 y "q" ], [ x; y ]);
            ("empty", [], [ a; b ]);
            ( "copy",
              [ load ~id:0 x "p"; op ~dst:y ~srcs:[ x ] ~id:1 Mach.Opcode.Copy; store ~id:2 x "q";
                store ~id:3 y "r" ],
              [] );
            ( "live-ins",
              [ op ~dst:z ~srcs:[ a; b ] ~id:0 Mach.Opcode.Add; op ~dst:x ~srcs:[ z; a ] ~id:1 Mach.Opcode.Add;
                store ~id:2 x "p" ],
              [ a; b ] );
          ]
        in
        List.iter
          (fun (name, ops, live_out) ->
            let live_out = Ir.Vreg.Set.of_list live_out in
            let regs = Ir.Vreg.Set.elements (Ir.Vreg.Set.union live_out (Alloc_ref.code_registers ops)) in
            List.iter
              (fun (clusters, regs_per_bank) ->
                let machine =
                  Mach.Machine.make ~regs_per_bank ~clusters ~fus_per_cluster:(16 / clusters)
                    ~copy_model:Mach.Machine.Embedded ()
                in
                let assignment =
                  Partition.Assign.of_list (List.map (fun r -> (r, Ir.Vreg.id r mod clusters)) regs)
                in
                match
                  alloc_diff
                    (Regalloc.Alloc.allocate ~machine ~assignment ~live_out ops)
                    (Alloc_ref.allocate ~machine ~assignment ~live_out ops)
                with
                | [] -> ()
                | diff ->
                    Alcotest.failf "%s on %d x %d: %s differ" name clusters regs_per_bank
                      (String.concat ", " diff))
              [ (1, 1); (1, 2); (1, 32); (2, 1); (2, 32) ])
          bodies);
    slow_case "ladder-bodies" (fun () ->
        (* What the fallback ladder allocated for every suite loop on
           every paper configuration: none spills at 32 registers, so
           its emitted body and assignment are the allocator's input. *)
        List.iter
          (fun loop ->
            List.iter
              (fun (cfg : Core.Experiment.config) ->
                let what = Ir.Loop.name loop ^ " on " ^ cfg.label in
                match Robust.Driver.run ~machine:cfg.machine loop with
                | Error e -> Alcotest.failf "%s: %s" what (Verify.Stage_error.to_string e)
                | Ok r ->
                    check Alcotest.int (what ^ " spills") 0 r.Robust.Driver.spill_count;
                    (match
                       alloc_diff (Ok r.Robust.Driver.alloc)
                         (Alloc_ref.allocate_loop ~machine:cfg.machine
                            ~assignment:r.Robust.Driver.assignment r.Robust.Driver.rewritten)
                     with
                    | [] -> ()
                    | diff -> Alcotest.failf "%s: %s differ" what (String.concat ", " diff));
                    check_alloc what ~machine:cfg.machine ~assignment:r.Robust.Driver.assignment
                      r.Robust.Driver.rewritten)
              Core.Experiment.paper_configs)
          (Workload.Suite.loops ()));
    slow_case "small-banks-spill" (fun () ->
        (* The greedy pipeline's bodies on 4 and 8 registers per bank:
           spill rounds, Spill.rewrite and the extended assignment. *)
        let spilled = ref 0 in
        List.iter
          (fun loop ->
            List.iter
              (fun clusters ->
                let m = Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded in
                match Partition.Driver.pipeline ~machine:m loop with
                | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
                | Ok r ->
                    List.iter
                      (fun regs ->
                        let machine = with_regs m regs in
                        let what = Printf.sprintf "%s on %s, %d registers" (Ir.Loop.name loop)
                            m.Mach.Machine.name regs in
                        (match
                           Regalloc.Alloc.allocate_loop ~machine
                             ~assignment:r.Partition.Driver.assignment r.Partition.Driver.rewritten
                         with
                        | Ok a when a.Regalloc.Alloc.spill_count > 0 -> incr spilled
                        | _ -> ());
                        check_alloc what ~machine ~assignment:r.Partition.Driver.assignment
                          r.Partition.Driver.rewritten)
                      [ 4; 8 ])
              [ 2; 4; 8 ])
          (Workload.Suite.loops ());
        check Alcotest.bool "some allocations spilled" true (!spilled > 100));
    qcheck ~count:60 "random-loops" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ops = Ir.Loop.ops loop and live_out = Regalloc.Liveness.loop_live_out loop in
        let by_parity = Partition.Assign.of_list
            (List.map (fun r -> (r, Ir.Vreg.id r mod 2)) (Ir.Vreg.Set.elements (Ir.Loop.vregs loop)))
        in
        graph_diff ~keep:(fun _ -> true) ops ~live_out
        && graph_diff ~keep:(fun r -> Ir.Vreg.id r mod 2 = 0) ops ~live_out
        && List.for_all
             (fun (clusters, regs) ->
               let machine =
                 Mach.Machine.make ~regs_per_bank:regs ~clusters ~fus_per_cluster:(16 / clusters)
                   ~copy_model:Mach.Machine.Embedded ()
               in
               let assignment =
                 if clusters = 1 then Partition.Assign.single_bank loop else by_parity
               in
               alloc_diff
                 (Regalloc.Alloc.allocate_loop ~machine ~assignment loop)
                 (Alloc_ref.allocate_loop ~machine ~assignment loop)
               = [])
             [ (1, 3); (1, 8); (2, 2); (2, 4); (2, 32) ]);
  ]

let suite =
  [
    ("regalloc.linear-scan", linear_scan_tests);
    ("regalloc.liveness", liveness_tests);
    ("regalloc.interference", interference_tests);
    ("regalloc.color", color_tests);
    ("regalloc.spill", spill_tests);
    ("regalloc.alloc", alloc_tests);
    ("regalloc.alloc-ref", alloc_ref_tests);
  ]
