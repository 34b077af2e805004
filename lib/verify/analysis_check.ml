let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

let finding_diag (f : Analysis.Validate.finding) =
  let loc = Printf.sprintf "op %d -> op %d" f.Analysis.Validate.src f.Analysis.Validate.dst in
  let msg = Analysis.Validate.describe f in
  match f.Analysis.Validate.mismatch with
  | Analysis.Validate.Missing_in_ddg -> Diag.error Diag.Analysis ~code:"AN001" ~loc msg
  | Analysis.Validate.Distance_exceeds -> Diag.error Diag.Analysis ~code:"AN002" ~loc msg
  | Analysis.Validate.Extra_in_ddg -> Diag.warning Diag.Analysis ~code:"AN003" ~loc msg
  | Analysis.Validate.Distance_below -> Diag.warning Diag.Analysis ~code:"AN004" ~loc msg
  | Analysis.Validate.Latency_differs -> Diag.warning Diag.Analysis ~code:"AN005" ~loc msg

let syntactically_read ops =
  List.fold_left
    (fun s op ->
      List.fold_left (fun s r -> Ir.Vreg.Set.add r s) s (Ir.Op.uses op))
    Ir.Vreg.Set.empty ops

let check ?obs ?ddg ?(latency = Mach.Latency.paper) ?(remat_info = false) loop =
  try
    let ddg = match ddg with Some d -> d | None -> Ddg.Graph.of_loop ~latency loop in
    let latency = ddg.Ddg.Graph.latency in
    let live = Analysis.Liveness.of_loop loop in
    (* Value ranges feed only the AN008 remat info, so they are solved
       only when it is asked for. *)
    let vr = if remat_info then Some (Analysis.Valrange.of_loop loop) else None in
    let dep = Analysis.Depan.of_loop ~latency loop in
    let report = Analysis.Validate.run dep ddg in
    let solves =
      List.concat
        [
          [ ("liveness", live.Analysis.Liveness.stats) ];
          (match vr with Some vr -> [ ("value-range", vr.Analysis.Valrange.stats) ] | None -> []);
          [ ("reaching-definitions", dep.Analysis.Depan.stats) ];
        ]
    in
    let total f = List.fold_left (fun acc (_, st) -> acc + f st) 0 solves in
    Obs.Trace.incr obs Obs.Counter.Analysis_iterations
      (total (fun st -> st.Analysis.Solver.iterations));
    Obs.Trace.incr obs Obs.Counter.Analysis_widened
      (total (fun st -> st.Analysis.Solver.widenings));
    Obs.Trace.incr obs Obs.Counter.Analysis_ddg_diff
      (List.length report.Analysis.Validate.findings);
    let diff = List.map finding_diag report.Analysis.Validate.findings in
    (* IR003 already flags definitions nothing ever reads; the dataflow
       version adds only the transitive tail of a dead chain — ops whose
       result is read, but exclusively by other dead ops. *)
    let dead =
      match Analysis.Liveness.dead_ops ~live loop with
      | [] -> []
      | dead_ops ->
          let read = syntactically_read (Ir.Loop.ops loop) in
          List.filter_map
            (fun op ->
              match Ir.Op.dst op with
              | Some d when Ir.Vreg.Set.mem d read ->
                  Some
                    (Diag.warning Diag.Analysis ~code:"AN006" ~loc:(op_loc op)
                       (Printf.sprintf "register %s is read only by transitively dead code"
                          (Ir.Vreg.to_string d)))
              | _ -> None)
            dead_ops
    in
    let remat =
      match vr with
      | None -> []
      | Some vr ->
          List.map
            (fun (op, v) ->
              Diag.info Diag.Analysis ~code:"AN008" ~loc:(op_loc op)
                (Printf.sprintf
                   "result is provably %d every iteration; rematerializable%s" v
                   (if Ir.Op.is_memory op then " (via its defining chain)" else "")))
            (Analysis.Valrange.constant_ops loop vr)
    in
    let converged =
      List.filter_map
        (fun (name, st) ->
          if st.Analysis.Solver.converged then None
          else
            Some
              (Diag.warning Diag.Analysis ~code:"AN007"
                 (Printf.sprintf "%s solve hit its iteration budget without converging"
                    name)))
        solves
    in
    diff @ dead @ remat @ converged
  with exn ->
    [
      Diag.error Diag.Analysis ~code:"AN000"
        (Printf.sprintf "analysis engine failed: %s" (Printexc.to_string exn));
    ]
