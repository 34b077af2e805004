(** Suite compilation as engine job batches.

    This is the glue between the generic {!Engine} (pools, cache,
    deterministic merge) and the pipeline: it fingerprints a
    (loop, machine, options) triple into a content-addressed cache key,
    serializes per-loop outcomes — {!Metrics.loop_metrics} on success,
    the structured {!Verify.Stage_error} on failure — and runs a loop
    list through {!Partition.Driver.pipeline} on [jobs] domains.

    Fingerprints are {e content}: the full loop body (op ids, opcodes,
    classes, operands, addresses, immediates, depth, trip count,
    live-outs), the complete machine description including the latency
    table tabulated over every (opcode, class), and the pipeline
    options. A [Custom] partitioner carries an opaque closure, so such
    jobs get no key and are always recomputed — the cache can never be
    wrong, only cold. *)

type outcome = (Metrics.loop_metrics, Verify.Stage_error.t) Stdlib.result

val fingerprint_loop : Ir.Loop.t -> string
val fingerprint_machine : Mach.Machine.t -> string

val fingerprint_options :
  ?partitioner:Partition.Driver.partitioner ->
  ?scheduler:Partition.Driver.scheduler ->
  unit ->
  string option
(** [None] for a [Custom] partitioner (unfingerprintable closure). *)

val job_key :
  ?partitioner:Partition.Driver.partitioner ->
  ?scheduler:Partition.Driver.scheduler ->
  machine:Mach.Machine.t ->
  Ir.Loop.t ->
  string option

val codec : outcome Engine.Run.codec
(** Lossless: numbers survive the JSON round-trip bit-exactly (shortest
    round-tripping representation), so warm results are byte-identical
    to cold ones in every report. *)

type result = {
  outcomes : (string * outcome) array;  (** (loop name, outcome), suite order *)
  hits : int;      (** outcomes served from the cache *)
  executed : int;  (** outcomes computed this run *)
}

val run :
  ?jobs:int ->
  ?cache:Engine.Cache.t ->
  ?partitioner:Partition.Driver.partitioner ->
  ?scheduler:Partition.Driver.scheduler ->
  machine:Mach.Machine.t ->
  Ir.Loop.t list ->
  result
(** [jobs] defaults to 1 — the exact serial path; [0] means one per
    core. A loop whose job {e raises} (the pipeline's contract is that
    none does) is folded into the [Error] side as a [PIPE001]
    verification-stage error naming the exception, so one bad loop can
    never take down the batch. *)
