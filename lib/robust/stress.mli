(** Deterministic stress harness: fault-injected trials over the
    workload suite, with {!Verify} as an independent oracle.

    One trial = one (loop, machine, fault plan) triple drawn from a
    split of the master PRNG, run through {!Driver.run} with
    {!Inject.arm}'s hooks. The harness audits every outcome:

    - {b Clean} — no fault fired (or the fault found nothing to
      corrupt) and the driver produced verified code first try;
    - {b Recovered} — a fault fired, and the driver still produced code
      that the independently re-run analyzers accept (attempt log shows
      the rung that saved it);
    - {b Failed_clean} — the driver surrendered with a structured
      {!Verify.Stage_error} carrying a stage and diagnostic code, and
      only {e fatal} faults (or none) fired — the contract for
      unsalvageable input;
    - {b Unrecovered} — a structured failure although only recoverable
      (transient) faults fired: the ladder should have caught it;
    - {b Violation} — the driver raised, returned [Ok] code the
      oracle rejects, or returned [Ok] with diagnostics other than the
      oracle's fresh {!Driver.verify_diags}. Never acceptable.

    Same seed, same trial count → byte-identical report. *)

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
  rung : Driver.rung option;     (** the rung that produced code, on success *)
  n_attempts : int;              (** failed attempts before success/surrender *)
  error : Verify.Stage_error.t option;
  outcome : outcome;
}

type summary = {
  trials : trial list;           (** in trial order *)
  clean : int;
  recovered : int;
  failed_clean : int;
  unrecovered : trial list;
  violations : trial list;
}

val run :
  ?obs:Obs.Trace.t ->
  ?jobs:int ->
  ?job_clock:(int -> Obs.Clock.t) ->
  ?config:Driver.config ->
  ?include_fatal:bool ->
  ?fault_rate:float ->
  seed:int ->
  trials:int ->
  unit ->
  summary
(** [include_fatal] (default true) adds {!Inject.fatal} faults to the
    drawing pool; [fault_rate] (default 0.9) is the chance a trial
    injects any fault at all — the rest exercise the clean path.
    [obs] is threaded into every trial's {!Driver.run}.

    [jobs] (default 1 — the exact serial path; 0 = one per core) shards
    the trials across an {!Engine.Pool}. Every trial's inputs are drawn
    from the master PRNG serially {e before} any trial runs, so the
    summary is byte-identical for every [jobs] value; trials are never
    cached (the fault plan is the point). *)

val outcome_name : outcome -> string
val trial_line : trial -> string
(** One pinned line per trial: index, loop, machine, plan, fired
    faults, outcome, rung or error code. *)

val report : ?verbose:bool -> summary -> string
(** [verbose] prints every trial line; otherwise only non-clean trials
    plus the totals line. Ends with the totals line either way. *)

val exit_code : summary -> int
(** 0 — no unrecovered trials and no violations; 1 — unrecovered
    structured failures; 2 — violations (an exception escaped or
    unverified code was emitted). *)
