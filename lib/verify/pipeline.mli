(** Cross-stage verification driver.

    One loop flows through the paper's framework as a growing set of
    stage artifacts: the source body, the ideal modulo schedule, the
    bank assignment with its rewritten (copy-carrying) body, the
    clustered modulo schedule, and finally a per-bank register
    allocation. [run] threads whatever artifacts are present through
    every applicable analyzer and aggregates the diagnostics:

    - the source loop through {!Ir_check};
    - the ideal kernel through {!Sched_check} on the monolithic
      counterpart machine;
    - assignment + rewritten body through {!Partition_check} (with
      copy-count minimality against the source);
    - the clustered kernel through {!Sched_check};
    - the allocation through {!Alloc_check} (cross-checked against the
      partition);
    - the source and rewritten bodies through {!Analysis_check}, the
      independent dataflow engine's translation validation of the DDGs.

    Producers stay untrusted: every analyzer recomputes its invariant
    from definitions. *)

type alloc_view = {
  code : Ir.Op.t list;        (** allocated code, incl. any spill code *)
  mapping : (int * int) Ir.Vreg.Map.t;  (** register -> (bank, index) *)
  live_out : Ir.Vreg.Set.t;   (** live-out the allocation ran against *)
}

type stages = {
  machine : Mach.Machine.t;
  loop : Ir.Loop.t;
  ideal : (Ddg.Graph.t * Sched.Kernel.t) option;
      (** source DDG + ideal kernel (scheduled on the monolithic
          counterpart of [machine]) *)
  partition : (int Ir.Vreg.Map.t * Ir.Loop.t) option;
      (** bank assignment + rewritten body *)
  clustered : (Ddg.Graph.t * Sched.Kernel.t) option;
      (** rewritten-body DDG + clustered kernel *)
  alloc : alloc_view option;
}

val stages : machine:Mach.Machine.t -> Ir.Loop.t -> stages
(** A stage set holding only the source loop; fill fields in as the
    pipeline produces them. *)

type memo
(** Check results of one set of artifacts, keyed on the physical
    identity of what they were computed from: the source loop's
    {!Ir_check}, each (assignment, rewritten body) pair's
    {!Partition_check}, each (DDG, kernel) pair's clustered
    {!Sched_check}, and each (body, DDG) pair's {!Analysis_check}. *)

val memo : unit -> memo
(** An empty memo. One memo serves one set of artifacts that do not
    change while it lives, e.g. one run of a fallback ladder. *)

val ir_check : ?memo:memo -> Ir.Loop.t -> Diag.t list
(** {!Ir_check.loop}, looked up in and stored to [memo]: a caller that
    checks the source loop before {!run} does not pay for it twice. *)

val run : ?obs:Obs.Trace.t -> ?memo:memo -> ?source_ddg:Ddg.Graph.t -> stages -> Diag.t list
(** Every applicable analyzer over every present artifact, in pipeline
    order, ending with the independent dataflow analysis
    ({!Analysis_check}): the source loop is validated against the ideal
    DDG (else [source_ddg], else a freshly built one), the rewritten
    body against the clustered DDG (else a freshly built one).
    [source_ddg] hands in the source DDG without the ideal stage's
    kernel checks.

    With [memo], the source loop's IR check, the partition and
    clustered-kernel checks, and a dataflow check of a body against a
    handed-in DDG are looked up by physical identity before they are
    run, and stored after: a caller verifying the same artifacts twice
    pays for each check once. The ideal kernel and the allocation are
    always checked. The diagnostics are those of a run without [memo].
    [obs] feeds the [analysis.*] counters, for the checks actually
    run. *)

val verdict : Diag.t list -> (unit, string) Stdlib.result
(** [Ok ()] when no error-severity diagnostic is present, otherwise an
    [Error] rendering the first few errors one per line. *)
