(** Resilient pipeline driver — a graceful-degradation ladder over the
    Section-4 framework.

    {!Partition.Driver.pipeline} runs the framework once with one
    configuration and reports the first failure. Production compilation
    of a heavy workload cannot afford that: every loop must come out
    with {e some} verified schedule. This driver wraps the framework in
    a ladder of increasingly conservative configurations and descends
    until one produces code that the independent {!Verify} analyzers
    accept:

    + the configured partitioner at the base scheduling budget;
    + {b II-budget escalation} — the same partitioner with escalating
      [budget_ratio] values (more placement attempts, so IIs that the
      base budget abandons are reached);
    + {b partitioner fallback} — the remaining partitioners in chain
      order (Greedy → UAS → BUG by default), each with the full budget
      escalation; a partition whose copy count exceeds the configured
      saturation threshold is rejected without scheduling;
    + {b single-bank merge} — every register in bank 0: no copies can
      be needed, at the price of using one cluster's issue width;
    + {b spill-and-reschedule} (within every rung) — when
      per-bank colouring spills, the clustered kernel is re-derived
      over the spill-rewritten body so the emitted schedule matches the
      emitted code;
    + {b non-pipelined surrender} — a flat (list-scheduled) single-bank
      schedule, the rung that cannot fail for resource or recurrence
      reasons.

    Every failed attempt is recorded in the attempt log with its stage
    and diagnostic code; the successful rung rides on the result, so
    callers (and [rbp stress]) can report exactly which rung produced
    the emitted code. The driver never raises on malformed input and
    never returns unverified code: each candidate is re-checked by the
    {!Verify} analyzers before being accepted, and a rung whose output
    they reject is treated as failed. *)

type rung =
  | Pipelined of { partitioner : string; budget_ratio : int; respilled : bool }
      (** modulo-scheduled with the named partitioner; [respilled] when
          the kernel was re-derived over spill-rewritten code *)
  | Single_bank of { budget_ratio : int; respilled : bool }
      (** modulo-scheduled with every register merged into bank 0 *)
  | Non_pipelined  (** flat list schedule, single bank — the last rung *)

val rung_name : rung -> string

type code =
  | Kernel of { kernel : Sched.Kernel.t; ii : int; ideal_ii : int }
      (** a software pipeline; degradation is [ii / ideal_ii] *)
  | Flat of Sched.Schedule.t  (** non-pipelined surrender *)

type result = {
  loop : Ir.Loop.t;                  (** original body *)
  machine : Mach.Machine.t;
  rewritten : Ir.Loop.t;             (** emitted body: copies, plus spill code if any *)
  assignment : Partition.Assign.t;   (** final banks incl. copy/spill registers *)
  code : code;
  alloc : Regalloc.Alloc.t;          (** per-bank colouring of [rewritten] *)
  rung : rung;                       (** the ladder rung that produced the code *)
  n_copies : int;
  spill_count : int;
  attempts : Verify.Stage_error.attempt list;
      (** every failed attempt before the successful rung, oldest first *)
  diags : Verify.Diag.t list;
      (** non-error findings of the final verification (warnings/infos) *)
}

type hooks = {
  on_loop : Ir.Loop.t -> Ir.Loop.t;
  on_machine : Mach.Machine.t -> Mach.Machine.t;
  on_assignment : Partition.Assign.t -> Partition.Assign.t;
      (** applied to the post-copy-insertion assignment of every rung *)
  on_rewritten : Ir.Loop.t -> Ir.Loop.t;
      (** applied to the copy-rewritten body of every rung *)
  on_kernel : Sched.Kernel.t -> Sched.Kernel.t;
      (** applied to every clustered kernel before verification *)
}
(** Stage-artifact transformers, the seam the deterministic
    fault-injection harness ({!Inject}) plugs into. Identity by
    default; the driver applies them at fixed points so injected
    corruption flows into exactly the artifacts the verifier audits. *)

val no_hooks : hooks

type config = {
  partitioners : (string * Partition.Driver.partitioner) list;
      (** fallback chain, tried in order *)
  budget_schedule : int list;
      (** escalating [budget_ratio] backoff schedule, e.g. [[10; 40; 160]] *)
  copy_saturation : float option;
      (** reject a partition needing more than [ratio × body size] copies *)
  spill_rounds : int list;
      (** escalating [max_rounds] schedule for the per-bank allocator *)
  allow_non_pipelined : bool;  (** enable the final surrender rung *)
}
(** Every rung schedules with Rau's scheduler, colours per bank and,
    when colouring spills, reschedules the spilled body. *)

val default_config : config
(** Greedy → UAS → BUG, budgets [[10; 40]], no saturation threshold,
    spill rounds [[8; 32]], surrender enabled. *)

val run :
  ?obs:Obs.Trace.t ->
  ?cancel:(unit -> bool) ->
  ?config:config ->
  ?hooks:hooks ->
  machine:Mach.Machine.t ->
  Ir.Loop.t ->
  (result, Verify.Stage_error.t) Stdlib.result
(** Run the ladder. [Ok] results always carry code that passed every
    applicable {!Verify} analyzer; [Error] carries the stage and
    diagnostic code of the last rung's failure plus the whole attempt
    trace. Never raises on malformed input: bad IR is rejected up front
    with its IR diagnostic code, malformed assignments and copy
    failures are caught per rung.

    [cancel] is a cooperative cancellation poll (e.g.
    {!Engine.Cancel.guard} over a deadline token; constant [false] by
    default). It is consulted at every stage boundary inside a rung and
    between rungs; once it returns [true] the driver abandons the run
    at the next boundary — no artifact escapes, nothing is left half
    built — and returns an [Error] whose code is
    {!Partition.Driver.deadline_code} and
    whose attempt trace covers {e every} rung tried before the
    deadline, including the one the cancellation interrupted. An [Ok]
    whose verification completed just before the token fired is still
    returned: cancellation never discards verified code.

    [obs] (default off) traces one [ladder] span per call with one
    [ladder.rung] child per rung attempted (scheduler, partitioner and
    allocator spans nested inside), and counts
    [ladder.rung_entered{RUNG}] / [ladder.rung_failed{RUNG}] per rung
    name — the successful rung is the entered one that never failed. *)

val verify_diags : result -> Verify.Diag.t list
(** Re-run every applicable analyzer over the result's artifacts
    afresh: DDGs rebuilt, every dataflow analysis solved anew. This is
    the oracle the stress harness uses to audit the driver's own claim
    that emitted code is verified. {!run} reaches the same list more
    cheaply — its final verification reuses the dataflow checks of its
    fail-fast check on the same artifacts — and a result's [diags]
    must equal [verify_diags] of it. *)
