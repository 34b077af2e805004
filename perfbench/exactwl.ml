(* exact: the `rbp exact` slice. The suite's loops with at most
   Exact.Solve.slice_max_vregs registers times the 2x8/4x4/8x2 embedded
   geometries, in a seeded order; one op is one Exact.Gap.one call
   (greedy pipeline, then the node-budgeted, greedy-seeded solve). *)

open Common

type op = { loop : Ir.Loop.t; machine : Mach.Machine.t }

let setup ~seed =
  let loops = Exact.Gap.slice () in
  shuffle ~seed
    (List.concat_map
       (fun (_, clusters) ->
         let machine =
           Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded
         in
         List.map (fun loop -> { loop; machine }) loops)
       Exact.Gap.geometries)

(* Everything deterministic an op produces. *)
let summary (e : Exact.Gap.entry) =
  let s = e.solve in
  ( (e.greedy_ii, e.greedy_copies),
    (Exact.Solve.status_name s.status, s.best_mii, s.best_copies),
    s.stats )

let describe op = Ir.Loop.name op.loop ^ " on " ^ op.machine.Mach.Machine.name

let run_op _ op = Ok (Exact.Gap.one ~cancel:Engine.Cancel.never ~machine:op.machine op.loop)

(* The output check, run on each first-pass result outside its timed
   interval: no witness-validation findings, a proven lower bound at or
   below the incumbent, a realized witness, and, for an Optimal claim, a
   witness achieving exactly the claimed score. *)
let verdict (e : Exact.Gap.entry) =
  let s = e.solve in
  if e.greedy_ii <= 0 then Error "greedy pipeline failed"
  else if s.diags <> [] then
    Error (String.concat "; " (List.map Verify.Diag.to_string s.diags))
  else if Exact.Solve.lower s > s.best_mii then
    Error (Printf.sprintf "lower bound %d above best MinII %d" (Exact.Solve.lower s) s.best_mii)
  else
    match (s.status, Exact.Solve.witness s) with
    | _, None -> Error "no witness"
    | Exact.Solve.Optimal w, _
      when w.Exact.Witness.ii <> s.best_mii || w.Exact.Witness.copies <> s.best_copies ->
        Error "optimal witness does not achieve the claimed score"
    | _, Some w -> Ok w

let keep ops i e =
  match verdict e with
  | Ok w -> Ok (ops.(i), e, w)
  | Error msg -> Error (describe ops.(i) ^ ": " ^ msg)

let same (_, e, _) e' = summary e = summary e'

(* Degradation of the solver's witness against the loop's ideal II,
   computed after the timed phase. *)
let quality ok =
  let degradation (op, _, (w : Exact.Witness.t)) =
    let ddg = Ddg.Graph.of_loop ~latency:op.machine.Mach.Machine.latency op.loop in
    match Sched.Modulo.ideal ~machine:op.machine ddg with
    | Some ideal -> 100.0 *. float_of_int w.ii /. float_of_int ideal.Sched.Modulo.ii
    | None -> fail "exact: no ideal schedule for %s" (Ir.Loop.name op.loop)
  in
  [
    ("mean_degradation", mean_of degradation ok);
    ("mean_copies", mean_of (fun (_, (e : Exact.Gap.entry), _) -> float_of_int e.solve.best_copies) ok);
    ( "optimal_ratio",
      mean_of
        (fun (_, (e : Exact.Gap.entry), _) ->
          match e.solve.status with Exact.Solve.Optimal _ -> 1.0 | _ -> 0.0)
        ok );
  ]

(* The traced composition of Exact.Gap.one: the greedy pipeline, then
   the greedy-seeded solve, with the same never-firing cancel guard. *)
let traced_op ~expected i op =
  let guard = Engine.Cancel.guard Engine.Cancel.never in
  let greedy =
    Layers.span "exact.greedy" (fun () ->
        Partition.Driver.pipeline ~cancel:guard ~machine:op.machine op.loop)
  in
  let greedy_ii, greedy_copies, seed_assignment =
    match greedy with
    | Ok r -> (r.clustered.Sched.Modulo.ii, r.n_copies, Some r.assignment)
    | Error _ -> (0, 0, None)
  in
  let s =
    Layers.span "exact.solve" (fun () ->
        Exact.Solve.solve ~cancel:guard ?seed_assignment ~machine:op.machine op.loop)
  in
  let st = s.Exact.Solve.stats in
  Layers.count "exact.nodes" (float_of_int st.nodes);
  Layers.count "exact.leaves" (float_of_int st.leaves);
  Layers.count "exact.pruned" (float_of_int st.pruned);
  Layers.count "exact.backjumps" (float_of_int st.backjumps);
  let got =
    {
      Exact.Gap.loop_name = Ir.Loop.name op.loop;
      n_regs = s.n_regs;
      greedy_ii;
      greedy_copies;
      solve = s;
    }
  in
  match expected.(i) with
  | Ok (_, e, _) when summary e = summary got -> Ok got
  | Ok _ -> Error "traced composition disagrees with Exact.Gap.one"
  | Error _ -> Error "Exact.Gap.one failed on this op"

let layer_metrics ~traced_ops ~distinct =
  let per_op x = x /. float_of_int traced_ops and per_distinct x = x /. float_of_int distinct in
  [
    ("exact.greedy_ms", per_op (Layers.ms "exact.greedy"));
    ("exact.solve_ms", per_op (Layers.ms "exact.solve"));
    ("exact.solve_kw", per_distinct (Layers.kw "exact.solve"));
    ("exact.nodes", per_distinct (Layers.total "exact.nodes"));
    ("exact.leaves", per_distinct (Layers.total "exact.leaves"));
    ("exact.pruned", per_distinct (Layers.total "exact.pruned"));
    ("exact.backjumps", per_distinct (Layers.total "exact.backjumps"));
    (* Every traced pass repeats the first pass's node counts. *)
    ( "exact.nodes_per_ms",
      Layers.total "exact.nodes" *. float_of_int (traced_ops / distinct)
      /. Layers.ms "exact.solve" );
  ]
