(** End-to-end code generation for one software-pipelined loop — the
    five-step framework of Section 4:

    1. intermediate code over an infinite register file (the input loop);
    2. DDG + ideal modulo schedule on the monolithic machine;
    3. register partitioning (greedy RCG by default; BUG/UAS baselines);
    4. copy insertion, DDG rebuild, clustered modulo rescheduling;
    5. (separately, see [Regalloc]) per-bank Chaitin/Briggs colouring.

    Degradation is achieved-II over ideal-II, normalized to 100 as in the
    paper's Table 2. *)

type partitioner =
  | Greedy of Rcg.Weights.t  (** the paper's method *)
  | Bug
  | Uas
  | Custom of (Mach.Machine.t -> Ddg.Graph.t -> Rcg.Graph.t option -> Assign.t)
      (** receives the target machine, the loop DDG and (for RCG-based
          methods) the built RCG *)

type result = {
  loop : Ir.Loop.t;                 (** original body *)
  machine : Mach.Machine.t;
  ideal : Sched.Modulo.outcome;     (** monolithic pipeline *)
  clustered : Sched.Modulo.outcome; (** partitioned pipeline (with copies) *)
  assignment : Assign.t;            (** final banks incl. copy registers *)
  rewritten : Ir.Loop.t;            (** body with copies *)
  n_copies : int;
  degradation : float;   (** 100 · II_clustered / II_ideal (100 = none) *)
  ipc_ideal : float;     (** ops / II on the ideal pipeline *)
  ipc_clustered : float;
      (** kernel ops / II; copies count under the embedded model and are
          excluded under the copy-unit model, as in Table 1 *)
}

type scheduler = Rau | Swing
(** Which modulo scheduler drives both the ideal and the clustered
    pipelines: Rau's iterative scheme (the paper's) or Swing
    (lifetime-sensitive; what Nystrom & Eichenberger use). *)

val partitioner_name : partitioner -> string
(** ["greedy"], ["bug"], ["uas"] or ["custom"] — the label tracing and
    reports use. *)

val deadline_code : string
(** ["PIPE008"] — the code a fired [cancel] token surfaces as, here and
    in the resilient ladder of [lib/robust]: the discriminator callers
    use to tell "the deadline fired" from "the loop could not be
    compiled". *)

val pipeline :
  ?obs:Obs.Trace.t ->
  ?cancel:(unit -> bool) ->
  ?partitioner:partitioner ->
  ?scheduler:scheduler ->
  ?budget_ratio:int ->
  ?verify:bool ->
  machine:Mach.Machine.t ->
  Ir.Loop.t ->
  (result, Verify.Stage_error.t) Stdlib.result
(** Runs the whole framework. [partitioner] defaults to
    [Greedy Rcg.Weights.default], [scheduler] to [Rau]. [cancel]
    (default never) is polled at every stage boundary — typically
    {!Engine.Cancel.guard} of a deadline token; once it fires the
    pipeline stops cooperatively with an [Error] carrying
    {!deadline_code} at the stage it was about to enter. Failures are
    reported as structured {!Verify.Stage_error} values naming the
    framework stage and a diagnostic code — never raised, including on
    malformed assignments (unassigned registers, out-of-range banks)
    coming out of a [Custom] partitioner. On a monolithic machine the
    "clustered" leg equals the ideal one and degradation is 100.

    [verify] (default false) re-checks every stage artifact with the
    independent {!Verify} analyzers — ideal and clustered kernels
    against their DDGs and machine resources, operand bank-locality and
    copy well-formedness of the rewritten body — and turns any
    error-severity diagnostic into an [Error].

    [obs] (default off) traces the Section-4 stages as a span tree —
    one [pipeline] root per call with [ddg.build], [schedule.ideal],
    [partition] (and [rcg.build] / [greedy.partition] inside it),
    [copies.insert], [ddg.rebuild], [sched.minii] (cluster map and
    clustered MinII), [schedule.clustered] and (under [~verify])
    [verify] children — and feeds the scheduler, greedy and
    [copies.inserted{SRC->DST}] counters plus the
    [sched.clustered_mii] gauge. With no context every probe is one
    branch and behaviour is unchanged. *)

val assign :
  ?obs:Obs.Trace.t ->
  partitioner ->
  machine:Mach.Machine.t ->
  ddg:Ddg.Graph.t ->
  ideal_kernel:Sched.Kernel.t ->
  Ir.Loop.t ->
  (Assign.t, Verify.Stage_error.t) Stdlib.result
(** Step 3 as [pipeline] runs it: the partitioner (RCG-based methods
    build their graph from the ideal kernel, under an [rcg.build] span),
    then every register the partitioner missed parked in bank 0. Fails
    at the [Partitioning] stage when the partitioner raises
    [Invalid_argument] and with [PT002] when a bank is out of range. *)

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }
(** Wraps a named part of {!rebuild}. The step emits no spans; a caller
    that traces passes a timer opening its own spans. *)

type rebuilt = {
  ddg : Ddg.Graph.t;         (** of the rebuilt body *)
  cluster_of : int -> int;   (** op id -> cluster, from {!cluster_map} *)
  mii : int;                 (** {!Sched.Modulo.clustered_mii} *)
}

val rebuild :
  ?timer:timer ->
  ?loads:int array * int array ->
  machine:Mach.Machine.t ->
  assignment:Assign.t ->
  Ir.Loop.t ->
  (rebuilt, Verify.Stage_error.t) Stdlib.result
(** What step 4 derives from a (copy-rewritten, possibly spilled) body
    and its assignment before scheduling it: the DDG (timed as
    ["ddg.rebuild"]), the op-to-cluster map and the clustered MinII
    (together timed as ["sched.minii"]). [loads] are the per-cluster
    (op, arriving copy) counts the resource bound uses; by default they
    are counted from the body, and callers holding a
    {!Copies.result} pass its own counts. Fails with [PT001] at the
    [Partitioning] stage when the assignment misses a register. *)

val clustered_ipc : machine:Mach.Machine.t -> Sched.Kernel.t -> float
(** Kernel ops / II. Copies count under the embedded model and are
    excluded under the copy-unit model, as in Table 1. *)

val cluster_map : Assign.t -> Ir.Loop.t -> (int -> int, string) Stdlib.result
(** [cluster_map assignment loop] is the op-id -> cluster function the
    schedulers consume. Returns [Error] (naming the register) when the
    assignment misses a register of the body, so malformed assignments
    are rejected before scheduling rather than raising mid-schedule.
    The returned function raises [Invalid_argument] on op ids not in
    [loop] — an internal invariant, since schedulers only query ids of
    the DDG built from this same body. *)
