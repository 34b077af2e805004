(** Comparison of two bench telemetry documents ([rbp-bench/1], written
    by [rbp report -f json]) with per-metric regression thresholds — the
    engine behind [rbp perfdiff] and the CI perf gate.

    Only the deterministic metrics are compared (per-config loop counts,
    failures, IPC, degradation means); host-dependent fields (wall
    times, and any field this module does not know, such as the
    per-stage timings older documents carried) are ignored, so a
    checked-in baseline gates CI byte-reproducibly.

    Exit-code contract (enforced by the CLI, encoded here as types):
    0 — no regression; 1 — at least one regression; 2 — a document
    failed to parse, declared a different schema, or the two runs are
    incomparable (different seed, loop count or config set). *)

type config_metrics = {
  label : string;
  clusters : int;
  copy_model : string;
  loops_ok : int;
  failures : int;
  mean_ipc_clustered : float;
  arith_mean_degradation : float;
  harmonic_mean_degradation : float;
  pct_no_degradation : float;
}

type serve_latency = {
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;  (** informational only, never gated *)
  degraded_p99_ms : float option;
      (** tail of the degraded (error/timeout/shed-retry) series *)
}

type exact_geometry = {
  geo_label : string;     (** ["2x8"] etc. *)
  geo_loops : int;        (** slice size for this geometry *)
  optimal : int;          (** loops solved to proven optimality *)
  bound : int;
  exhausted : int;
  greedy_optimal_pct : float;
  mean_exact_ii : float;  (** over the proven-optimal loops *)
  mean_greedy_ii : float;
}

type exact_metrics = {
  budget : int;       (** solver node budget the run used *)
  max_vregs : int;    (** slice criterion *)
  geometries : exact_geometry list;
}

type doc = {
  seed : int;
  loops : int;
  ideal_ipc : float;
  configs : config_metrics list;
  jobs : int option;  (** engine [-j] level, absent in pre-engine documents *)
  cache_hits : int option;  (** result-cache hits across the run *)
  wall_s : float option;  (** whole-run wall time; host-dependent, never gated *)
  serve : serve_latency option;
      (** service latency quantiles from [rbp bombard --json]; gated only
          when both compared documents carry them *)
  exact : exact_metrics option;
      (** heuristic-vs-optimal gap metrics from [rbp exact --json]; gated
          only when both documents carry them, and only at identical
          budget and slice criterion (otherwise incomparable, exit 2).
          The gates are strict — the solver is deterministic, so a lost
          optimum, new budget exhaustion or any movement of a proven
          mean II is a real change *)
}

val parse : string -> (doc, string) result
(** Rejects anything whose [schema] is not ["rbp-bench/1"]. *)

type thresholds = {
  ipc_rel_drop : float;
      (** max tolerated relative drop in an IPC metric (e.g. [0.02]) *)
  degradation_rise : float;
      (** max tolerated absolute rise in a degradation mean, in points *)
  pct_drop : float;
      (** max tolerated absolute drop of [pct_no_degradation], in points *)
  latency_rel_rise : (float * float) list;
      (** per-quantile max tolerated relative latency rise, as
          [(quantile, rise)] — e.g. [(0.99, 4.0)] allows p99 up to 5x
          the baseline; a quantile not listed is never gated *)
  latency_floor_ms : float;
      (** absolute slack below which a latency rise is never a
          regression, so microsecond-scale baselines don't flake *)
}

val default_thresholds : thresholds
(** 2% relative IPC, 2.0 degradation points, 3.0 percentage points —
    loose enough for float jitter across compilers, tight enough to
    catch a real heuristic regression. Any new failure or lost loop is
    always a regression regardless of thresholds. Latency quantiles are
    host-dependent, so their guards are looser still — p50 3x, p95 4x,
    p99 5x with a 5 ms floor — catching blowups, not jitter. *)

type finding = {
  config : string;      (** config label, or ["suite"] for global metrics *)
  metric : string;
  old_value : float;
  new_value : float;
  regressed : bool;
}

val diff :
  ?thresholds:thresholds -> baseline:doc -> current:doc -> unit -> (finding list, string) result
(** All compared metrics in document order; [Error] when the runs are
    incomparable (the exit-2 case). *)

val regressions : finding list -> finding list

val engine_note : baseline:doc -> current:doc -> string option
(** One informational line about the engine telemetry (jobs level, wall
    speedup ratio, cache hits) when either document carries it — never a
    regression, never part of the exit code. [None] for two pre-engine
    documents. *)

val render : finding list -> string
(** One line per metric: [ok]/[REGRESSED], values and delta. *)
