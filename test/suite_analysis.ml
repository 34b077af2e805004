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
             dep.Analysis.Depan.edges));
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
            dep.Analysis.Depan.edges
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
        sorted dep.Analysis.Depan.edges);
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
          (fun loop ->
            List.iter
              (fun (cfg : Core.Experiment.config) ->
                match Partition.Driver.pipeline ~machine:cfg.machine loop with
                | Error e ->
                    Alcotest.fail (Ir.Loop.name loop ^ ": " ^ e.Verify.Stage_error.message)
                | Ok r ->
                    check_reachdef
                      (Ir.Loop.name loop ^ " on " ^ cfg.label)
                      r.Partition.Driver.rewritten)
              Core.Experiment.paper_configs)
          (Workload.Suite.loops ()));
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
          (fun loop ->
            List.iter
              (fun (cfg : Core.Experiment.config) ->
                match Partition.Driver.pipeline ~machine:cfg.machine loop with
                | Error e ->
                    Alcotest.fail (Ir.Loop.name loop ^ ": " ^ e.Verify.Stage_error.message)
                | Ok r ->
                    check_liveness
                      (Ir.Loop.name loop ^ " on " ^ cfg.label)
                      r.Partition.Driver.rewritten)
              Core.Experiment.paper_configs)
          (Workload.Suite.loops ()));
    qcheck ~count:60 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor -> liveness_against_reference (fst (Ir.Unroll.loop ~factor loop)) = Ok ())
          [ 1; 4 ]);
  ]

let suite =
  [
    ("analysis.solver", solver_tests);
    ("analysis.liveness", liveness_tests);
    ("analysis.depan", reachdef_tests);
    ("analysis.wiring", wiring_tests);
    ("analysis.reachdef-ref", reachdef_oracle_tests);
    ("analysis.liveness-ref", liveness_oracle_tests);
  ]
