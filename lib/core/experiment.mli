(** The paper's experiments as runnable configurations.

    The meta-model: 16 general-purpose FUs grouped as N ∈ {2,4,8}
    clusters, embedded or copy-unit copy support, Section 6.1 latencies.
    Each configuration pipelines the whole suite and aggregates
    {!Metrics}. *)

type config = {
  label : string;        (** e.g. ["2x8 embedded"] *)
  clusters : int;
  copy_model : Mach.Machine.copy_model;
  machine : Mach.Machine.t;
}

val paper_configs : config list
(** The six columns of Tables 1-2: clusters 2, 4, 8 × both copy models,
    in the paper's column order (per cluster count: embedded first). *)

val config_for : clusters:int -> copy_model:Mach.Machine.copy_model -> config

type run = {
  config : config;
  metrics : Metrics.loop_metrics list;  (** successfully pipelined loops *)
  failures : (string * Verify.Stage_error.t) list;  (** loop name, structured error *)
  cache_hits : int;  (** loops served from the result cache (0 without one) *)
}

val run_config :
  ?jobs:int ->
  ?cache:Engine.Cache.t ->
  ?partitioner:Partition.Driver.partitioner ->
  ?loops:Ir.Loop.t list ->
  config ->
  run
(** Pipelines every loop ([loops] defaults to the 211-loop suite).
    [jobs] (default 1 — the exact serial path; 0 = one per core) shards
    the loops across an {!Engine.Pool}; metrics and failures are
    identical for every [jobs] value. [cache] keys each
    (loop, machine, options) triple by content ({!Batch.job_key}). *)

val run_all :
  ?jobs:int ->
  ?cache:Engine.Cache.t ->
  ?partitioner:Partition.Driver.partitioner ->
  ?loops:Ir.Loop.t list ->
  ?configs:config list ->
  unit ->
  run list

val ideal_ipc : ?loops:Ir.Loop.t list -> unit -> float
(** Mean IPC of the ideal 16-wide pipelines — Table 1's "Ideal" row. *)
