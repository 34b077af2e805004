type outcome =
  | Clean
  | Recovered
  | Failed_clean
  | Unrecovered
  | Violation of string

type trial = {
  index : int;
  loop_name : string;
  machine_name : string;
  plan : Inject.fault list;
  fired : Inject.fault list;
  rung : Driver.rung option;
  n_attempts : int;
  error : Verify.Stage_error.t option;
  outcome : outcome;
}

type summary = {
  trials : trial list;
  clean : int;
  recovered : int;
  failed_clean : int;
  unrecovered : trial list;
  violations : trial list;
}

let outcome_name = function
  | Clean -> "clean"
  | Recovered -> "recovered"
  | Failed_clean -> "failed-clean"
  | Unrecovered -> "unrecovered"
  | Violation _ -> "violation"

let faults_str = function
  | [] -> "-"
  | fs -> String.concat "," (List.map Inject.fault_name fs)

let pick_machine prng =
  let clusters = Util.Prng.choose prng [ 2; 4; 8 ] in
  let fus = Util.Prng.choose prng [ 1; 2 ] in
  let copy_model = Util.Prng.choose prng [ Mach.Machine.Embedded; Mach.Machine.Copy_unit ] in
  Mach.Machine.make
    ~name:
      (Printf.sprintf "c%d-f%d-%s" clusters fus (Mach.Machine.copy_model_name copy_model))
    ~clusters ~fus_per_cluster:fus ~copy_model ()

let classify ~fired outcome_of_run =
  match outcome_of_run with
  | `Raised msg -> Violation ("driver raised: " ^ msg)
  | `Ok (r : Driver.result) -> (
      (* Independent oracle: never trust the driver's own verdict, nor
         the diagnostics it reused from its fail-fast check. *)
      let oracle = Driver.verify_diags r in
      match Verify.Diag.errors oracle with
      | first :: _ ->
          Violation
            (Printf.sprintf "emitted code fails verification: %s"
               (Verify.Diag.to_string first))
      | [] when oracle <> r.Driver.diags ->
          Violation
            (Printf.sprintf
               "reported diagnostics differ from a fresh verification (%d vs %d)"
               (List.length r.Driver.diags) (List.length oracle))
      | [] -> if fired = [] then Clean else Recovered)
  | `Error (_ : Verify.Stage_error.t) ->
      (* A structured surrender is the contract for unsalvageable input
         (fatal faults); with only transient faults — or none — the
         ladder had a clean rung available and should have taken it. *)
      if fired = [] || List.exists (fun f -> List.mem f Inject.recoverable) fired then
        Unrecovered
      else Failed_clean

type drawn = {
  trial_prng : Util.Prng.t;
  trial_loop : Ir.Loop.t;
  trial_machine : Mach.Machine.t;
  trial_plan : Inject.fault list;
}

let run ?obs ?(jobs = 1) ?job_clock ?(config = Driver.default_config)
    ?(include_fatal = true) ?(fault_rate = 0.9) ~seed ~trials () =
  let pool = if include_fatal then Inject.all else Inject.recoverable in
  let loops = Workload.Suite.loops () in
  let master = Util.Prng.create seed in
  (* Draw every trial's inputs serially first: [Prng.split] mutates the
     master, so the split order — hence the whole suite — must not
     depend on [jobs]. Each trial then owns its private split. *)
  let inputs =
    let a = Array.make (max trials 0) None in
    for index = 0 to trials - 1 do
      let prng = Util.Prng.split master in
      let loop = Util.Prng.choose prng loops in
      let machine = pick_machine prng in
      let plan =
        if Util.Prng.chance prng fault_rate then [ Util.Prng.choose prng pool ] else []
      in
      a.(index) <-
        Some { trial_prng = prng; trial_loop = loop; trial_machine = machine; trial_plan = plan }
    done;
    Array.map (function Some d -> d | None -> assert false) a
  in
  let js =
    Array.map
      (fun d ->
        {
          (* Fault plans are drawn fresh each run; trials are never cached. *)
          Engine.Run.key = None;
          work =
            (fun tr ->
              let armed = Inject.arm ~prng:d.trial_prng d.trial_plan in
              let run_result =
                match
                  Driver.run ?obs:tr ~config ~hooks:armed.Inject.hooks
                    ~machine:d.trial_machine d.trial_loop
                with
                | Ok r -> `Ok r
                | Error e -> `Error e
                | exception exn -> `Raised (Printexc.to_string exn)
              in
              (run_result, armed.Inject.fired ()));
        })
      inputs
  in
  let outs, _stats = Engine.Run.map ?obs ?job_clock ~jobs js in
  let results = ref [] in
  for index = 0 to trials - 1 do
    let d = inputs.(index) in
    let run_result, fired =
      match outs.(index) with
      | Ok (r, f) -> (r, f)
      | Error exn ->
          (* Engine-level backstop: a trial that somehow escaped the
             in-job catch damns only itself, as a violation. *)
          (`Raised (Printexc.to_string exn), [])
    in
    let outcome = classify ~fired run_result in
    let rung, n_attempts, error =
      match run_result with
      | `Ok r -> (Some r.Driver.rung, List.length r.Driver.attempts, None)
      | `Error e -> (None, List.length e.Verify.Stage_error.attempts, Some e)
      | `Raised _ -> (None, 0, None)
    in
    results :=
      {
        index;
        loop_name = Ir.Loop.name d.trial_loop;
        machine_name = d.trial_machine.Mach.Machine.name;
        plan = d.trial_plan;
        fired;
        rung;
        n_attempts;
        error;
        outcome;
      }
      :: !results
  done;
  let trials = List.rev !results in
  let count o = List.length (List.filter (fun t -> t.outcome = o) trials) in
  {
    trials;
    clean = count Clean;
    recovered = count Recovered;
    failed_clean = count Failed_clean;
    unrecovered = List.filter (fun t -> t.outcome = Unrecovered) trials;
    violations =
      List.filter (fun t -> match t.outcome with Violation _ -> true | _ -> false) trials;
  }

let trial_line t =
  let detail =
    match (t.outcome, t.rung, t.error) with
    | Violation msg, _, _ -> msg
    | _, Some rung, _ ->
        Printf.sprintf "%s after %d failed attempt(s)" (Driver.rung_name rung) t.n_attempts
    | _, None, Some e ->
        Printf.sprintf "%s [%s] after %d failed attempt(s)"
          (Verify.Stage_error.stage_name e.Verify.Stage_error.stage)
          e.Verify.Stage_error.code t.n_attempts
    | _, None, None -> "?"
  in
  Printf.sprintf "#%03d %-14s %-18s plan=%-20s fired=%-20s %-12s %s" t.index t.loop_name
    t.machine_name (faults_str t.plan) (faults_str t.fired) (outcome_name t.outcome)
    detail

let report ?(verbose = false) s =
  let lines =
    List.filter_map
      (fun t ->
        match t.outcome with
        | Clean | Recovered | Failed_clean when not verbose -> None
        | _ -> Some (trial_line t))
      s.trials
  in
  let totals =
    Printf.sprintf
      "totals: %d trials, %d clean, %d recovered, %d failed-clean, %d unrecovered, %d violations"
      (List.length s.trials) s.clean s.recovered s.failed_clean
      (List.length s.unrecovered) (List.length s.violations)
  in
  String.concat "\n" (lines @ [ totals ])

let exit_code s =
  if s.violations <> [] then 2 else if s.unrecovered <> [] then 1 else 0
