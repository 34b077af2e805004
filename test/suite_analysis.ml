open Testlib

(* The independent dataflow engine (lib/analysis): lattice/solver
   behavior, agreement with the single-pass Regalloc liveness, and the
   translation validation of the DDG. *)

let f = Mach.Rclass.Float
let i = Mach.Rclass.Int

let op ?dst ?srcs ?addr ?imm ~id opcode cls =
  Ir.Op.make ?dst ?srcs ?addr ?imm ~id ~opcode ~cls ()

let load ~id dst ?(offset = 0) base =
  op ~dst ~addr:(Ir.Addr.element ~offset base) ~id Mach.Opcode.Load (Ir.Vreg.cls dst)

let store ~id v ?(offset = 0) base =
  op ~srcs:[ v ] ~addr:(Ir.Addr.element ~offset base) ~id Mach.Opcode.Store (Ir.Vreg.cls v)

let add ~id dst a b = op ~dst ~srcs:[ a; b ] ~id Mach.Opcode.Add (Ir.Vreg.cls dst)
let const ~id dst v = op ~dst ~imm:v ~id Mach.Opcode.Const (Ir.Vreg.cls dst)

let set = Ir.Vreg.Set.of_list

(* ------------------------------------------------------------------ *)
(* Solver + lattice                                                    *)
(* ------------------------------------------------------------------ *)

let solver_tests =
  [
    case "ring-edges-wrap" (fun () ->
        check
          Alcotest.(list (pair int int))
          "forward ring" [ (0, 1); (1, 2); (2, 0) ] (Analysis.Solver.ring 3);
        check
          Alcotest.(list (pair int int))
          "reversed ring" [ (1, 0); (2, 1); (0, 2) ]
          (Analysis.Solver.ring_rev 3);
        check Alcotest.(list (pair int int)) "self ring" [ (0, 0) ] (Analysis.Solver.ring 1));
    case "liveness-converges-with-stats" (fun () ->
        List.iter
          (fun loop ->
            let l = Analysis.Liveness.of_loop loop in
            check Alcotest.bool "converged" true l.Analysis.Liveness.stats.Analysis.Solver.converged;
            check Alcotest.bool "did some work" true
              (l.Analysis.Liveness.stats.Analysis.Solver.iterations > 0))
          (sample_loops ~n:12 ()));
    qcheck "valrange-const-chain-folds" gen_loop_seed (fun seed ->
        (* a const-fed add is provably constant regardless of the loop *)
        ignore seed;
        let a = vreg ~cls:i 0 and b = vreg ~cls:i 1 and c = vreg ~cls:i 2 in
        let ops =
          [ const ~id:0 a 5; const ~id:1 b (seed mod 100); add ~id:2 c a b ]
        in
        let loop = Ir.Loop.make ~name:"k" ~live_out:(set [ c ]) ops in
        let vr = Analysis.Valrange.of_loop loop in
        let consts = Analysis.Valrange.constant_ops loop vr in
        List.length consts = 3
        && List.exists (fun (o, v) -> Ir.Op.id o = 2 && v = 5 + (seed mod 100)) consts
        && List.length (Analysis.Valrange.remat_candidates loop vr) = 3);
    case "valrange-widens-induction-variable" (fun () ->
        (* s = s + 1 grows every iteration: must widen to non-constant,
           not fold — and must converge. *)
        let s = vreg ~cls:i 0 and one = vreg ~cls:i 1 in
        let ops = [ const ~id:0 one 1; add ~id:1 s s one ] in
        let loop = Ir.Loop.make ~name:"iv" ~live_out:(set [ s ]) ops in
        let vr = Analysis.Valrange.of_loop loop in
        check Alcotest.bool "converged" true vr.Analysis.Valrange.stats.Analysis.Solver.converged;
        check Alcotest.bool "iv is not constant" true
          (List.for_all (fun (o, _) -> Ir.Op.id o <> 1)
             (Analysis.Valrange.constant_ops loop vr)));
  ]

(* ------------------------------------------------------------------ *)
(* Cyclic liveness vs the single-pass implementation                   *)
(* ------------------------------------------------------------------ *)

let liveness_tests =
  [
    qcheck "cyclic-liveness-agrees-with-regalloc" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ops = Ir.Loop.ops loop in
        let l = Analysis.Liveness.of_loop loop in
        let reference =
          Regalloc.Liveness.backward ops ~live_out:(Regalloc.Liveness.loop_live_out loop)
        in
        Array.length l.Analysis.Liveness.before = Array.length reference
        && Array.for_all Fun.id
             (Array.mapi (fun i s -> Ir.Vreg.Set.equal (Analysis.Liveness.live_before l i) s)
                reference));
    qcheck "one-bank-maxlive-is-maxlive" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let l = Analysis.Liveness.of_loop loop in
        let peaks = Analysis.Liveness.per_bank_max_live l ~banks:1 ~bank_of:(fun _ -> 0) in
        peaks.(0) = Analysis.Liveness.max_live l);
    qcheck "class-peaks-bound-total-peak" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let l = Analysis.Liveness.of_loop loop in
        let peaks =
          Analysis.Liveness.per_bank_max_live l ~banks:2
            ~bank_of:(fun r -> if Ir.Vreg.cls r = Mach.Rclass.Int then 0 else 1)
        in
        let total = Analysis.Liveness.max_live l in
        peaks.(0) <= total && peaks.(1) <= total && total <= peaks.(0) + peaks.(1));
    case "dead-chain-found-transitively" (fun () ->
        (* b is never read (IR003 territory); a is read only by b's dead
           op, which only the iterated liveness can see. *)
        let a = vreg 0 and b = vreg 1 and c = vreg 2 in
        let ops =
          [
            load ~id:0 a "x"; add ~id:1 b a a; load ~id:2 c "y"; store ~id:3 c "z";
          ]
        in
        let loop = Ir.Loop.make ~name:"dead" ops in
        let dead = List.map Ir.Op.id (Analysis.Liveness.dead_ops loop) in
        check Alcotest.(list int) "both rounds found, body order" [ 0; 1 ] dead);
  ]

(* ------------------------------------------------------------------ *)
(* Reaching definitions + dependence analysis                          *)
(* ------------------------------------------------------------------ *)

let accumulator_loop () =
  let x = vreg 0 and s = vreg 1 in
  let ops = [ load ~id:0 x "x"; add ~id:1 s s x ] in
  Ir.Loop.make ~name:"acc" ~live_out:(set [ s ]) ops

let reachdef_tests =
  [
    case "accumulator-distances" (fun () ->
        let loop = accumulator_loop () in
        let rd = Analysis.Reachdef.of_loop loop in
        let x = vreg 0 and s = vreg 1 in
        check
          Alcotest.(list (pair int int))
          "x reaches its use this iteration" [ (0, 0) ]
          (Analysis.Reachdef.reaching rd ~pos:1 x);
        check
          Alcotest.(list (pair int int))
          "s reaches its own redefinition from last iteration" [ (1, 1) ]
          (Analysis.Reachdef.reaching rd ~pos:1 s));
    case "accumulator-self-flow-edge" (fun () ->
        let loop = accumulator_loop () in
        let dep = Analysis.Depan.of_loop loop in
        check Alcotest.bool "self flow at distance 1" true
          (List.exists
             (fun (e : Analysis.Depan.edge) ->
               e.Analysis.Depan.src = 1 && e.Analysis.Depan.dst = 1
               && e.Analysis.Depan.kind = Ddg.Dep.Flow
               && e.Analysis.Depan.distance = 1)
             (Analysis.Depan.edges dep)));
    qcheck ~count:150 "ddg-and-analysis-agree-edge-by-edge" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let dep = Analysis.Depan.of_loop loop in
        let ddg = Ddg.Graph.of_loop loop in
        let r = Analysis.Validate.run dep ddg in
        r.Analysis.Validate.findings = []
        && r.Analysis.Validate.matched = r.Analysis.Validate.analysis_edges
        && r.Analysis.Validate.matched = r.Analysis.Validate.ddg_edges);
    qcheck "analysis-distances-never-exceed-ddg" gen_loop_seed (fun seed ->
        (* the soundness half on its own: every DDG edge is justified at
           a distance no larger than the analysis requires *)
        let loop = loop_of_seed seed in
        let dep = Analysis.Depan.of_loop loop in
        let keyed =
          List.map
            (fun (e : Analysis.Depan.edge) ->
              ((e.Analysis.Depan.src, e.Analysis.Depan.dst, e.Analysis.Depan.kind),
               e.Analysis.Depan.distance))
            (Analysis.Depan.edges dep)
        in
        let ok = ref true in
        Graphlib.Digraph.iter_edges
          (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
            match List.assoc_opt (e.src, e.dst, Ddg.Dep.kind e.label) keyed with
            | None -> ok := false
            | Some d -> if Ddg.Dep.distance e.label > d then ok := false)
          (Ddg.Graph.graph (Ddg.Graph.of_loop loop));
        !ok);
    case "validator-catches-weakened-memory-edge" (fun () ->
        (* Same op ids, but the DDG is built from a body whose store
           lands one element further: its loop-carried memory flow
           distance becomes 2 where the real body requires 1. *)
        let t = vreg 0 in
        let real =
          Ir.Loop.make ~name:"m" [ store ~id:0 t ~offset:1 "a"; load ~id:1 t "a" ]
        in
        let weakened =
          Ir.Loop.make ~name:"m" [ store ~id:0 t ~offset:2 "a"; load ~id:1 t "a" ]
        in
        let dep = Analysis.Depan.of_loop real in
        let r = Analysis.Validate.run dep (Ddg.Graph.of_loop weakened) in
        check Alcotest.bool "unsoundness detected" true (Analysis.Validate.has_errors r);
        check Alcotest.bool "as a distance violation" true
          (List.exists
             (fun (fd : Analysis.Validate.finding) ->
               fd.Analysis.Validate.mismatch = Analysis.Validate.Distance_exceeds)
             r.Analysis.Validate.findings));
    case "validator-catches-missing-edge" (fun () ->
        (* DDG built from a body whose addresses never alias: the real
           body's memory dependence has no counterpart at all. *)
        let t = vreg 0 and u = vreg 1 in
        let real =
          Ir.Loop.make ~name:"m2"
            [ load ~id:0 t "a"; store ~id:1 u "a"; store ~id:2 t "q" ]
            ~live_out:(set [ t ])
        in
        let severed =
          Ir.Loop.make ~name:"m2"
            [ load ~id:0 t "a"; store ~id:1 u "b"; store ~id:2 t "q" ]
            ~live_out:(set [ t ])
        in
        let dep = Analysis.Depan.of_loop real in
        let r = Analysis.Validate.run dep (Ddg.Graph.of_loop severed) in
        check Alcotest.bool "unsoundness detected" true (Analysis.Validate.has_errors r);
        check Alcotest.bool "as a missing edge" true
          (List.exists
             (fun (fd : Analysis.Validate.finding) ->
               fd.Analysis.Validate.mismatch = Analysis.Validate.Missing_in_ddg)
             r.Analysis.Validate.findings));
    qcheck "edge-list-is-sorted-and-deduped" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let dep = Analysis.Depan.of_loop loop in
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              (let c = compare (a.Analysis.Depan.src, a.Analysis.Depan.dst) (b.Analysis.Depan.src, b.Analysis.Depan.dst) in
               c < 0
               || (c = 0
                  && compare
                       (Analysis.Depan.kind_rank a.Analysis.Depan.kind, a.Analysis.Depan.distance)
                       (Analysis.Depan.kind_rank b.Analysis.Depan.kind, b.Analysis.Depan.distance)
                     < 0))
              && sorted rest
          | _ -> true
        in
        sorted (Analysis.Depan.edges dep));
  ]

(* ------------------------------------------------------------------ *)
(* Verify wiring + summary                                             *)
(* ------------------------------------------------------------------ *)

let wiring_tests =
  [
    case "analysis-check-clean-on-kernels" (fun () ->
        List.iter
          (fun loop ->
            check Alcotest.(list string) (Ir.Loop.name loop) []
              (List.map Verify.Diag.to_string (Verify.Analysis_check.check loop)))
          (sample_loops ~n:16 ()));
    case "analysis-check-reports-an006-not-ir003-twin" (fun () ->
        let a = vreg 0 and b = vreg 1 and c = vreg 2 in
        let ops =
          [ load ~id:0 a "x"; add ~id:1 b a a; load ~id:2 c "y"; store ~id:3 c "z" ]
        in
        let loop = Ir.Loop.make ~name:"dead" ops in
        let diags = Verify.Analysis_check.check loop in
        let an006 = List.filter (fun d -> d.Verify.Diag.code = "AN006") diags in
        check Alcotest.int "one transitive dead op" 1 (List.length an006);
        check Alcotest.bool "anchored at the chain head" true
          (match an006 with
          | [ d ] -> ( match d.Verify.Diag.loc with Some l -> contains l "op 0" | None -> false)
          | _ -> false));
    case "analysis-check-counters" (fun () ->
        let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
        let loop = accumulator_loop () in
        let diags = Verify.Analysis_check.check ~obs loop in
        check Alcotest.(list string) "clean" [] (List.map Verify.Diag.to_string diags);
        check Alcotest.bool "iterations counted" true
          (Obs.Trace.counter_value obs Obs.Counter.Analysis_iterations > 0);
        check Alcotest.int "no diff discrepancies" 0
          (Obs.Trace.counter_value obs Obs.Counter.Analysis_ddg_diff));
    case "analysis-check-remat-info-gated" (fun () ->
        let a = vreg ~cls:i 0 in
        let loop =
          Ir.Loop.make ~name:"c" ~live_out:(set [ a ]) [ const ~id:0 a 42 ]
        in
        let quiet = Verify.Analysis_check.check loop in
        check Alcotest.bool "no AN008 by default" false
          (Verify.Diag.has_code "AN008" quiet);
        let chatty = Verify.Analysis_check.check ~remat_info:true loop in
        check Alcotest.bool "AN008 under remat_info" true
          (Verify.Diag.has_code "AN008" chatty);
        check Alcotest.bool "still no errors" false (Verify.Diag.has_errors chatty));
    case "pipeline-run-appends-analysis-stage" (fun () ->
        let loop = accumulator_loop () in
        let stages = Verify.Pipeline.stages ~machine:m4x4e loop in
        let diags = Verify.Pipeline.run stages in
        check Alcotest.(list string) "clean end to end" []
          (List.map Verify.Diag.to_string diags));
    qcheck ~count:50 "summary-is-deterministic" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let name = Ir.Loop.name loop in
        let a = Analysis.Summary.of_loop ~name loop in
        let b = Analysis.Summary.of_loop ~name loop in
        a = b
        && Obs.Json.to_string (Analysis.Summary.to_json a)
           = Obs.Json.to_string (Analysis.Summary.to_json b));
    qcheck ~count:50 "summary-json-round-trips" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let s = Analysis.Summary.of_loop ~name:(Ir.Loop.name loop) loop in
        match Obs.Json.of_string (Obs.Json.to_string (Analysis.Summary.to_json s)) with
        | Ok j ->
            Obs.Json.member "diff_errors" j = Some (Obs.Json.Num 0.0)
            && Obs.Json.member "loop" j = Some (Obs.Json.Str (Ir.Loop.name loop))
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Dense reaching definitions against the map-based reference          *)
(* ------------------------------------------------------------------ *)

(* The original formulation, kept here as the oracle: each fact a map
   from register to (def op id -> minimum distance). *)
module Reachdef_ref = struct
  module Defs = struct
    module IdMap = Map.Make (Int)

    type t = int IdMap.t

    let bottom = IdMap.empty
    let equal a b = IdMap.equal ( = ) a b
    let join a b = IdMap.union (fun _ da db -> Some (min da db)) a b
    let widen ~old ~next = join old next
    let pp fmt m = IdMap.iter (fun id d -> Format.fprintf fmt "op%d@%d " id d) m
    let age m = IdMap.map (fun d -> min (d + 1) Analysis.Reachdef.dist_cap) m
  end

  module D = Analysis.Lattice.VregMap (Defs)

  (* The fact at each position's entry, and the solve's stats. *)
  let of_loop loop =
    let arr = Array.of_list (Ir.Loop.ops loop) in
    let n = Array.length arr in
    let module P = struct
      module D = D

      let transfer i fact =
        List.fold_left
          (fun fact d -> Ir.Vreg.Map.add d (Defs.IdMap.singleton (Ir.Op.id arr.(i)) 0) fact)
          fact (Ir.Op.defs arr.(i))

      let edge ~src ~dst fact =
        if src = n - 1 && dst = 0 then Ir.Vreg.Map.map Defs.age fact else fact
    end in
    let module S = Analysis.Solver.Make (P) in
    let r = S.solve ~nodes:n ~edges:(Analysis.Solver.ring n) ~init:(fun _ -> D.bottom) () in
    (r.S.input, r.S.stats)

  let reaching before ~pos r = Defs.IdMap.bindings (D.find r before.(pos))
end

(* Equal stats, and equal [reaching] lists for every register the body
   mentions (plus one it does not) at every position. *)
let reachdef_against_reference loop =
  let rd = Analysis.Reachdef.of_loop loop in
  let before, stats = Reachdef_ref.of_loop loop in
  let ops = Ir.Loop.ops loop in
  let regs =
    Ir.Vreg.Set.elements
      (Ir.Vreg.Set.add (vreg 100_000)
         (Ir.Vreg.Set.of_list (List.concat_map (fun o -> Ir.Op.defs o @ Ir.Op.uses o) ops)))
  in
  let show l = String.concat " " (List.map (fun (id, d) -> Printf.sprintf "%d@%d" id d) l) in
  let stats_str (st : Analysis.Solver.stats) =
    Printf.sprintf "%d iterations, %d widenings, converged %b" st.Analysis.Solver.iterations
      st.Analysis.Solver.widenings st.Analysis.Solver.converged
  in
  if Analysis.Reachdef.stats rd <> stats then
    Error
      (Printf.sprintf "stats: %s, reference %s" (stats_str (Analysis.Reachdef.stats rd))
         (stats_str stats))
  else
    List.fold_left
      (fun acc pos ->
        List.fold_left
          (fun acc r ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                let got = Analysis.Reachdef.reaching rd ~pos r
                and want = Reachdef_ref.reaching before ~pos r in
                if got = want then Ok ()
                else
                  Error
                    (Printf.sprintf "%s at position %d: [%s], reference [%s]"
                       (Ir.Vreg.to_string r) pos (show got) (show want)))
          acc regs)
      (Ok ())
      (List.init (List.length ops) Fun.id)

let check_reachdef name loop =
  match reachdef_against_reference loop with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let reachdef_oracle_tests =
  [
    case "suite-bodies" (fun () ->
        List.iter (fun loop -> check_reachdef (Ir.Loop.name loop) loop) (Workload.Suite.loops ()));
    slow_case "rewritten-bodies" (fun () ->
        List.iter
          (fun (loop, bodies) ->
            List.iter
              (fun ((cfg : Core.Experiment.config), body) ->
                check_reachdef (Ir.Loop.name loop ^ " on " ^ cfg.label) (rewritten_exn body))
              bodies)
          (Lazy.force corpus));
    qcheck ~count:60 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor -> reachdef_against_reference (fst (Ir.Unroll.loop ~factor loop)) = Ok ())
          [ 1; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Dense liveness against the register-set formulation                 *)
(* ------------------------------------------------------------------ *)

(* The original solve over Lattice.VregSet, kept here as the oracle. *)
let liveness_ref ops ~live_out =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let set_of l = List.fold_left (fun s r -> Ir.Vreg.Set.add r s) Ir.Vreg.Set.empty l in
  let module P = struct
    module D = Analysis.Lattice.VregSet

    let transfer i after =
      let op = arr.(i) in
      Ir.Vreg.Set.union (set_of (Ir.Op.uses op))
        (Ir.Vreg.Set.diff after (set_of (Ir.Op.defs op)))

    let edge ~src:_ ~dst:_ d = d
  end in
  let module S = Analysis.Solver.Make (P) in
  let r =
    S.solve ~nodes:n ~edges:(Analysis.Solver.ring_rev n)
      ~init:(fun i -> if i = n - 1 then live_out else Ir.Vreg.Set.empty)
      ()
  in
  (r.S.output, r.S.input, r.S.stats)

let liveness_against_reference loop =
  let ops = Ir.Loop.ops loop and live_out = Ir.Loop.live_out loop in
  let l = Analysis.Liveness.of_ops ops ~live_out in
  let before, after, stats = liveness_ref ops ~live_out in
  let n = List.length ops in
  let first_diff name got want =
    List.find_map
      (fun i ->
        if Ir.Vreg.Set.equal (got l i) want.(i) then None
        else Some (Printf.sprintf "%s differs at position %d" name i))
      (List.init n Fun.id)
  in
  if l.Analysis.Liveness.stats <> stats then Error "stats differ"
  else if Array.length l.Analysis.Liveness.before <> n || Array.length l.Analysis.Liveness.after <> n
  then Error "row count differs"
  else
    match first_diff "before" Analysis.Liveness.live_before before with
    | Some e -> Error e
    | None -> (
        match first_diff "after" Analysis.Liveness.live_after after with
        | Some e -> Error e
        | None ->
            let card = Array.fold_left (fun m s -> max m (Ir.Vreg.Set.cardinal s)) 0 in
            if Analysis.Liveness.max_live l <> max (card before) (card after) then
              Error "max_live differs"
            else Ok ())

let check_liveness name loop =
  match liveness_against_reference loop with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let liveness_oracle_tests =
  [
    case "suite-bodies" (fun () ->
        List.iter (fun loop -> check_liveness (Ir.Loop.name loop) loop) (Workload.Suite.loops ()));
    slow_case "rewritten-bodies" (fun () ->
        List.iter
          (fun (loop, bodies) ->
            List.iter
              (fun ((cfg : Core.Experiment.config), body) ->
                check_liveness (Ir.Loop.name loop ^ " on " ^ cfg.label) (rewritten_exn body))
              bodies)
          (Lazy.force corpus));
    qcheck ~count:60 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor -> liveness_against_reference (fst (Ir.Unroll.loop ~factor loop)) = Ok ())
          [ 1; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* The array solver against the list/Queue worklist it replaced        *)
(* ------------------------------------------------------------------ *)

(* The original solver, kept verbatim as the oracle. *)
module Solver_ref = struct
  open Analysis.Solver

  module Make (P : PROBLEM) = struct
    module D = P.D

    type result = { input : D.t array; output : D.t array; stats : stats }

    let solve ?(widen_after = 8) ?max_iterations ~nodes ~edges ~init () =
      let max_iterations =
        match max_iterations with Some m -> m | None -> max 256 (64 * nodes)
      in
      let preds = Array.make nodes [] in
      let succs = Array.make nodes [] in
      List.iter
        (fun (src, dst) ->
          if src < 0 || src >= nodes || dst < 0 || dst >= nodes then
            invalid_arg "Solver.solve: edge endpoint out of range";
          preds.(dst) <- src :: preds.(dst);
          succs.(src) <- dst :: succs.(src))
        edges;
      (* Deterministic propagation order: predecessors in ascending node
         order, successors likewise. *)
      Array.iteri (fun i l -> preds.(i) <- List.sort_uniq compare l) preds;
      Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
      let input = Array.init nodes (fun i -> init i) in
      let output = Array.init nodes (fun i -> P.transfer i input.(i)) in
      let updates = Array.make nodes 0 in
      let queued = Array.make nodes true in
      let queue = Queue.create () in
      for i = 0 to nodes - 1 do
        Queue.add i queue
      done;
      let iterations = ref 0 in
      let widenings = ref 0 in
      let converged = ref true in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        queued.(v) <- false;
        if !iterations >= max_iterations then begin
          converged := false;
          Queue.clear queue
        end
        else begin
          incr iterations;
          let contribution =
            List.fold_left
              (fun acc p -> D.join acc (P.edge ~src:p ~dst:v output.(p)))
              (init v) preds.(v)
          in
          let next =
            if updates.(v) >= widen_after && not (D.equal contribution input.(v)) then begin
              incr widenings;
              D.widen ~old:input.(v) ~next:contribution
            end
            else D.join input.(v) contribution
          in
          if not (D.equal next input.(v)) then begin
            updates.(v) <- updates.(v) + 1;
            input.(v) <- next;
            output.(v) <- P.transfer v next;
            List.iter
              (fun s ->
                if not queued.(s) then begin
                  queued.(s) <- true;
                  Queue.add s queue
                end)
              succs.(v)
          end
        end
      done;
      {
        input;
        output;
        stats = { iterations = !iterations; widenings = !widenings; converged = !converged };
      }
  end
end

(* Sets of at most 62 small numbers, one bit each: a finite-height
   powerset lattice. Transfers are deliberately not monotone, so some
   instances oscillate until the budget runs out. *)
module Bitset = struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = ( lor )
  let widen ~old ~next = old lor next
  let pp fmt x = Format.fprintf fmt "%x" x
end

(* Counters climbing one step per node: unbounded, so the ring only
   stops through widening (to [top]) or the budget. *)
module Counter_dom (W : sig
  val widens : bool
end) =
struct
  type t = int

  let top = 1_000_000
  let bottom = 0
  let equal = Int.equal
  let join = max
  let widen ~old ~next = if W.widens && next > old then top else max old next
  let pp = Format.pp_print_int
end

type solve_case = {
  nodes : int;
  edges : (int * int) list;
  seed : int;  (* picks the transfer, edge and boundary functions *)
  widen_after : int option;
  max_iterations : int option;
}

let bitset_problem seed =
  let module P = struct
    module D = Bitset

    let transfer i x =
      let gen = 1 lsl ((i * 7 + seed) mod 20) and kill = 1 lsl ((i * 13 + seed) mod 23) in
      if (i + seed) mod 5 = 0 then x lxor gen (* not monotone *) else gen lor (x land lnot kill)

    let edge ~src ~dst x = if src >= dst then (x lsl 1) land 0xfffff else x
  end in
  (module P : Analysis.Solver.PROBLEM with type D.t = int)

let counter_problem widens =
  let module P = struct
    module D = Counter_dom (struct
      let widens = widens
    end)

    let transfer _ x = if x >= D.top then x else x + 1
    let edge ~src:_ ~dst:_ x = x
  end in
  (module P : Analysis.Solver.PROBLEM with type D.t = int)

let same_solve (module P : Analysis.Solver.PROBLEM with type D.t = int) c =
  let module S = Analysis.Solver.Make (P) in
  let module R = Solver_ref.Make (P) in
  let init i = if (i + c.seed) mod 3 = 0 then 1 lsl (i mod 17) else 0 in
  let got =
    S.solve ?widen_after:c.widen_after ?max_iterations:c.max_iterations ~nodes:c.nodes
      ~edges:c.edges ~init ()
  and want =
    R.solve ?widen_after:c.widen_after ?max_iterations:c.max_iterations ~nodes:c.nodes
      ~edges:c.edges ~init ()
  in
  got.S.input = want.R.input && got.S.output = want.R.output && got.S.stats = want.R.stats

(* A random graph: duplicate edges, self-loops, and nodes no edge
   reaches. *)
let random_case seed =
  let st = Random.State.make [| seed |] in
  let nodes = 1 + Random.State.int st 40 in
  let reachable = 1 + Random.State.int st nodes in
  let edges =
    List.init (Random.State.int st (3 * nodes))
      (fun _ -> (Random.State.int st reachable, Random.State.int st reachable))
  in
  let edges = List.concat [ edges; List.filteri (fun k _ -> k mod 3 = 0) edges ] in
  let edges = if seed mod 2 = 0 then (0, 0) :: edges else edges in
  { nodes; edges; seed; widen_after = None; max_iterations = None }

let solver_ref_tests =
  [
    case "rings" (fun () ->
        for n = 1 to 60 do
          List.iter
            (fun edges ->
              let c =
                { nodes = n; edges; seed = n; widen_after = None; max_iterations = None }
              in
              check Alcotest.bool (Printf.sprintf "bitset ring %d" n) true
                (same_solve (bitset_problem n) c);
              check Alcotest.bool (Printf.sprintf "counter ring %d" n) true
                (same_solve (counter_problem true) c))
            [ Analysis.Solver.ring n; Analysis.Solver.ring_rev n ]
        done);
    qcheck ~count:300 "random-graphs" gen_loop_seed (fun seed ->
        let c = random_case seed in
        same_solve (bitset_problem seed) c
        && same_solve (bitset_problem seed) { c with widen_after = Some (seed mod 4) }
        && same_solve (counter_problem true) c);
    case "widening-reached" (fun () ->
        let c =
          { nodes = 9; edges = Analysis.Solver.ring 9; seed = 0; widen_after = Some 2;
            max_iterations = None }
        in
        let module S = Analysis.Solver.Make ((val counter_problem true)) in
        let r =
          S.solve ?widen_after:c.widen_after ~nodes:c.nodes ~edges:c.edges ~init:(fun _ -> 0) ()
        in
        check Alcotest.bool "widened" true (r.S.stats.Analysis.Solver.widenings > 0);
        check Alcotest.bool "converged" true r.S.stats.Analysis.Solver.converged;
        check Alcotest.bool "same as reference" true (same_solve (counter_problem true) c));
    case "budget-exhausted" (fun () ->
        List.iter
          (fun max_iterations ->
            let c =
              { nodes = 7; edges = Analysis.Solver.ring 7; seed = 0; widen_after = None;
                max_iterations = Some max_iterations }
            in
            let module S = Analysis.Solver.Make ((val counter_problem false)) in
            let r =
              S.solve ?max_iterations:c.max_iterations ~nodes:c.nodes ~edges:c.edges
                ~init:(fun _ -> 0) ()
            in
            check Alcotest.bool "not converged" false r.S.stats.Analysis.Solver.converged;
            check Alcotest.int "spent the budget" max_iterations
              r.S.stats.Analysis.Solver.iterations;
            check Alcotest.bool "same as reference" true (same_solve (counter_problem false) c))
          [ 0; 1; 6; 7; 50 ]);
    case "out-of-range-edge-raises" (fun () ->
        let module S = Analysis.Solver.Make ((val counter_problem true)) in
        List.iter
          (fun edges ->
            match S.solve ~nodes:3 ~edges ~init:(fun _ -> 0) () with
            | _ -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ())
          [ [ (0, 3) ]; [ (3, 0) ]; [ (0, 1); (-1, 2) ]; [ (1, -1) ] ]);
  ]

(* ------------------------------------------------------------------ *)
(* Array Depan and merge Validate against the list/Map versions         *)
(* ------------------------------------------------------------------ *)

(* The original dependence analysis, kept verbatim as the oracle: edge
   records gathered in a list, registers in sets and tables. *)
module Depan_ref = struct
  open Analysis

  type edge = Depan.edge = {
    src : int;
    dst : int;
    kind : Ddg.Dep.kind;
    latency : int;
    distance : int;
  }

  let kind_rank = Depan.kind_rank

  let compare_edge a b =
    let c = compare a.src b.src in
    if c <> 0 then c
    else
      let c = compare a.dst b.dst in
      if c <> 0 then c
      else
        let c = compare (kind_rank a.kind) (kind_rank b.kind) in
        if c <> 0 then c else compare a.distance b.distance

  let distinct_uses op =
    List.fold_left
      (fun s r -> Ir.Vreg.Set.add r s)
      Ir.Vreg.Set.empty (Ir.Op.uses op)

  let of_loop ?(latency = Mach.Latency.paper) loop =
    let arr = Array.of_list (Ir.Loop.ops loop) in
    let n = Array.length arr in
    let rd = Reachdef.of_loop loop in
    let op_by_id = Hashtbl.create n in
    Array.iter (fun op -> Hashtbl.replace op_by_id (Ir.Op.id op) op) arr;
    let lat_of id = Ir.Op.latency latency (Hashtbl.find op_by_id id) in
    let def_positions = Ir.Vreg.Tbl.create 16 in
    Array.iteri
      (fun i op ->
        List.iter
          (fun d ->
            let prev = Option.value ~default:[] (Ir.Vreg.Tbl.find_opt def_positions d) in
            Ir.Vreg.Tbl.replace def_positions d (i :: prev))
          (Ir.Op.defs op))
      arr;
    Ir.Vreg.Tbl.filter_map_inplace (fun _ l -> Some (List.rev l)) def_positions;
    let edges = ref [] in
    let emit src dst kind latency distance =
      edges := { src; dst; kind; latency; distance } :: !edges
    in
    for q = 0 to n - 1 do
      let oq = arr.(q) in
      let qid = Ir.Op.id oq in
      Ir.Vreg.Set.iter
        (fun r ->
          let reaching = Reachdef.reaching rd ~pos:q r in
          List.iter
            (fun (def_id, d) -> emit def_id qid Ddg.Dep.Flow (lat_of def_id) d)
            reaching;
          let reads_current = List.exists (fun (_, d) -> d = 0) reaching in
          if reads_current then
            List.iter
              (fun k ->
                if k > q then emit qid (Ir.Op.id arr.(k)) Ddg.Dep.Anti 0 0)
              (Option.value ~default:[] (Ir.Vreg.Tbl.find_opt def_positions r)))
        (distinct_uses oq)
    done;
    Ir.Vreg.Tbl.iter
      (fun _ positions ->
        List.iteri
          (fun i p ->
            List.iteri
              (fun j k ->
                if j > i then
                  emit (Ir.Op.id arr.(p)) (Ir.Op.id arr.(k)) Ddg.Dep.Output 1 0)
              positions)
          positions)
      def_positions;
    let refs =
      Array.to_list (Array.mapi (fun i op -> (i, op, Aaddr.of_op op)) arr)
    in
    let mem_lat (kind : Ddg.Dep.kind_mem) src_pos =
      match kind with
      | Ddg.Dep.Mem_flow -> Ir.Op.latency latency arr.(src_pos)
      | Ddg.Dep.Mem_anti | Ddg.Dep.Mem_output -> 1
    in
    List.iter
      (fun (p, op_p, ap) ->
        match ap with
        | None -> ()
        | Some a ->
            List.iter
              (fun (q, op_q, aq) ->
                match aq with
                | None -> ()
                | Some b when a.Aaddr.store || b.Aaddr.store ->
                    let kind : Ddg.Dep.kind_mem =
                      match (a.Aaddr.store, b.Aaddr.store) with
                      | true, false -> Ddg.Dep.Mem_flow
                      | false, true -> Ddg.Dep.Mem_anti
                      | true, true -> Ddg.Dep.Mem_output
                      | false, false -> assert false
                    in
                    let min_dist = if p < q then 0 else 1 in
                    let emit_mem d =
                      if d >= min_dist then
                        emit (Ir.Op.id op_p) (Ir.Op.id op_q) (Ddg.Dep.Mem kind)
                          (mem_lat kind p) d
                    in
                    (match Aaddr.dependence ~src:a ~dst:b with
                    | Aaddr.Independent -> ()
                    | Aaddr.At d -> emit_mem d
                    | Aaddr.All -> emit_mem min_dist)
                | Some _ -> ())
              refs)
      refs;
    (List.sort_uniq compare_edge !edges, Reachdef.stats rd)
end

(* The original validator, kept verbatim as the oracle (it reads the
   analysis edge list instead of a [Depan.t]). *)
module Validate_ref = struct
  open Analysis.Validate

  let mismatch_rank = function
    | Missing_in_ddg -> 0
    | Distance_exceeds -> 1
    | Extra_in_ddg -> 2
    | Distance_below -> 3
    | Latency_differs -> 4

  module Key = struct
    type t = int * int * int (* src, dst, kind rank *)

    let compare = compare
  end

  module KMap = Map.Make (Key)

  let key src dst kind = (src, dst, Analysis.Depan.kind_rank kind)

  let kind_of_rank = function
    | 0 -> Ddg.Dep.Flow
    | 1 -> Ddg.Dep.Anti
    | 2 -> Ddg.Dep.Output
    | 3 -> Ddg.Dep.Mem Ddg.Dep.Mem_flow
    | 4 -> Ddg.Dep.Mem Ddg.Dep.Mem_anti
    | _ -> Ddg.Dep.Mem Ddg.Dep.Mem_output

  let run (edges : Analysis.Depan.edge list) ddg =
    let tighten m k (dist, lat) =
      KMap.update k
        (function
          | None -> Some (dist, lat)
          | Some (d0, l0) -> if dist < d0 then Some (dist, lat) else Some (d0, l0))
        m
    in
    let analysis =
      List.fold_left
        (fun m (e : Analysis.Depan.edge) ->
          tighten m (key e.Analysis.Depan.src e.Analysis.Depan.dst e.Analysis.Depan.kind)
            (e.Analysis.Depan.distance, e.Analysis.Depan.latency))
        KMap.empty edges
    in
    let produced = ref KMap.empty in
    Graphlib.Digraph.iter_edges
      (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
        produced :=
          tighten !produced
            (key e.src e.dst (Ddg.Dep.kind e.label))
            (Ddg.Dep.distance e.label, Ddg.Dep.latency e.label))
      (Ddg.Graph.graph ddg);
    let produced = !produced in
    let findings = ref [] in
    let matched = ref 0 in
    let add mismatch (src, dst, rank) ?ad ?dd ?al ?dl () =
      findings :=
        {
          mismatch;
          src;
          dst;
          kind = kind_of_rank rank;
          analysis_distance = ad;
          ddg_distance = dd;
          analysis_latency = al;
          ddg_latency = dl;
        }
        :: !findings
    in
    KMap.iter
      (fun k (ad, al) ->
        match KMap.find_opt k produced with
        | None -> add Missing_in_ddg k ~ad ~al ()
        | Some (dd, dl) ->
            if dd > ad then add Distance_exceeds k ~ad ~dd ~al ~dl ()
            else if dd < ad then add Distance_below k ~ad ~dd ~al ~dl ()
            else begin
              incr matched;
              if dl <> al then add Latency_differs k ~ad ~dd ~al ~dl ()
            end)
      analysis;
    KMap.iter
      (fun k (dd, dl) ->
        if not (KMap.mem k analysis) then add Extra_in_ddg k ~dd ~dl ())
      produced;
    let sorted =
      List.sort
        (fun a b ->
          let c =
            compare
              (a.src, a.dst, Analysis.Depan.kind_rank a.kind)
              (b.src, b.dst, Analysis.Depan.kind_rank b.kind)
          in
          if c <> 0 then c else compare (mismatch_rank a.mismatch) (mismatch_rank b.mismatch))
        !findings
    in
    {
      findings = sorted;
      analysis_edges = KMap.cardinal analysis;
      ddg_edges = KMap.cardinal produced;
      matched = !matched;
    }
end

let depan_matches_reference ?latency loop =
  let dep = Analysis.Depan.of_loop ?latency loop in
  let edges, stats = Depan_ref.of_loop ?latency loop in
  Analysis.Depan.edges dep = edges && dep.Analysis.Depan.stats = stats

(* Bodies the pipeline actually verifies: the suite loops and their
   rewritten (copy-inserted) forms on the paper's geometries. *)
let suite_and_rewritten_bodies () =
  List.concat_map
    (fun (loop, bodies) ->
      loop
      :: List.filter_map
           (fun ((cfg : Core.Experiment.config), body) ->
             match (cfg.copy_model, body) with
             | Mach.Machine.Embedded, Ok body -> Some body
             | _ -> None)
           bodies)
    (Lazy.force corpus)

let depan_ref_tests =
  [
    case "suite-and-rewritten-bodies" (fun () ->
        List.iter
          (fun loop ->
            check Alcotest.bool (Ir.Loop.name loop) true (depan_matches_reference loop);
            check Alcotest.bool (Ir.Loop.name loop ^ " at unit latency") true
              (depan_matches_reference ~latency:Mach.Latency.unit loop))
          (suite_and_rewritten_bodies ()));
    qcheck ~count:100 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor -> depan_matches_reference (fst (Ir.Unroll.loop ~factor loop)))
          [ 1; 3 ]);
  ]

(* Validate over every (analysis, DDG) pairing in [pairs]; true when
   every report equals the reference's. Tallies the mismatch kinds
   seen into [kinds]. *)
let validate_matches_reference kinds (loop, ddg) =
  let dep = Analysis.Depan.of_loop loop in
  let edges, _ = Depan_ref.of_loop loop in
  let got = Analysis.Validate.run dep ddg and want = Validate_ref.run edges ddg in
  List.iter
    (fun (f : Analysis.Validate.finding) ->
      Hashtbl.replace kinds f.Analysis.Validate.mismatch ())
    got.Analysis.Validate.findings;
  got = want

(* DDGs that disagree with the analysis of [loop]: built from another
   body (shared op ids, different dependences), at another latency
   table, and with seeded extra edges (some tighter, some duplicates of
   real ones at other latencies). *)
let mismatched_ddgs ~seed loop other =
  let st = Random.State.make [| seed |] in
  let ids = List.map Ir.Op.id (Ir.Loop.ops loop) in
  let pick () = List.nth ids (Random.State.int st (List.length ids)) in
  let kinds =
    [| Ddg.Dep.Flow; Ddg.Dep.Anti; Ddg.Dep.Output; Ddg.Dep.Mem Ddg.Dep.Mem_flow;
       Ddg.Dep.Mem Ddg.Dep.Mem_anti; Ddg.Dep.Mem Ddg.Dep.Mem_output |]
  in
  (* Drawn in the order the arguments of one [Digraph.add_edge] call
     are evaluated (right to left), as when the edges were added to a
     mutable graph. *)
  let salt = ref [] in
  for _ = 1 to 1 + Random.State.int st 6 do
    let distance = Random.State.int st 3 in
    let latency = Random.State.int st 4 in
    let kind = kinds.(Random.State.int st (Array.length kinds)) in
    let dst = pick () in
    let src = pick () in
    salt := (src, dst, Ddg.Dep.make ~kind ~latency ~distance) :: !salt
  done;
  let salted = Ddg.Graph.add_edges (Ddg.Graph.of_loop loop) (List.rev !salt) in
  (* Every store one element further on: memory distances grow. *)
  let shifted =
    Ir.Loop.with_ops loop
      (List.map
         (fun op ->
           match Ir.Op.addr op with
           | Some a when Ir.Op.opcode op = Mach.Opcode.Store ->
               Ir.Op.make ?dst:(Ir.Op.dst op) ~srcs:(Ir.Op.srcs op)
                 ~addr:
                   (Ir.Addr.make ~offset:(a.Ir.Addr.offset + 1) ~stride:a.Ir.Addr.stride
                      a.Ir.Addr.base)
                 ?imm:(Ir.Op.imm op) ~id:(Ir.Op.id op) ~opcode:(Ir.Op.opcode op)
                 ~cls:(Ir.Op.cls op) ()
           | _ -> op)
         (Ir.Loop.ops loop))
  in
  [
    (loop, Ddg.Graph.of_loop other);
    (loop, Ddg.Graph.of_loop ~latency:Mach.Latency.unit loop);
    (loop, salted);
    (other, Ddg.Graph.of_loop loop);
    (loop, Ddg.Graph.of_loop shifted);
    (shifted, Ddg.Graph.of_loop loop);
    (* Reversed: a same-iteration flow becomes a carried one. *)
    (loop, Ddg.Graph.of_loop (Ir.Loop.with_ops loop (List.rev (Ir.Loop.ops loop))));
  ]

let validate_ref_tests =
  [
    case "suite-bodies-against-their-ddgs" (fun () ->
        let kinds = Hashtbl.create 5 in
        List.iter
          (fun loop ->
            check Alcotest.bool (Ir.Loop.name loop) true
              (validate_matches_reference kinds (loop, Ddg.Graph.of_loop loop)))
          (suite_and_rewritten_bodies ()));
    case "mismatched-ddgs" (fun () ->
        let kinds = Hashtbl.create 5 in
        let loops = Array.of_list (Workload.Suite.loops ()) in
        Array.iteri
          (fun k loop ->
            let other = loops.((k * 7 + 3) mod Array.length loops) in
            List.iter
              (fun pair ->
                check Alcotest.bool (Ir.Loop.name loop) true
                  (validate_matches_reference kinds pair))
              (mismatched_ddgs ~seed:k loop other))
          loops;
        List.iter
          (fun (name, kind) ->
            check Alcotest.bool (name ^ " occurs") true (Hashtbl.mem kinds kind))
          Analysis.Validate.
            [
              ("missing", Missing_in_ddg);
              ("distance exceeds", Distance_exceeds);
              ("extra", Extra_in_ddg);
              ("distance below", Distance_below);
              ("latency differs", Latency_differs);
            ]);
    qcheck ~count:100 "random-mismatched-ddgs" gen_loop_seed (fun seed ->
        let kinds = Hashtbl.create 5 in
        let loop = loop_of_seed seed and other = loop_of_seed ((seed * 31) + 7) in
        List.for_all (validate_matches_reference kinds) (mismatched_ddgs ~seed loop other));
  ]

let suite =
  [
    ("analysis.solver", solver_tests);
    ("analysis.liveness", liveness_tests);
    ("analysis.depan", reachdef_tests);
    ("analysis.wiring", wiring_tests);
    ("analysis.reachdef-ref", reachdef_oracle_tests);
    ("analysis.liveness-ref", liveness_oracle_tests);
    ("analysis.solver-ref", solver_ref_tests);
    ("analysis.depan-ref", depan_ref_tests);
    ("analysis.validate-ref", validate_ref_tests);
  ]
