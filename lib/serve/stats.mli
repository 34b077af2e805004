(** Thread-safe counters, latency histograms and rolling windows.

    {!Obs.Trace.t} is deliberately single-threaded (one context per
    compilation), so the daemon cannot bump a shared trace from its
    connection threads and worker domains. This is the concurrent
    complement: one mutex guarding a table of {!Obs.Counter.t} cells,
    {!Obs.Histogram.t}s for queue/compile/total latency (plus one per
    ladder rung), and {!Obs.Window.t} rings for rolling request,
    overload and result rates. Counters remain observable through the
    wire protocol's [stats] op exactly as before; the distributions ride
    only in the additive [metrics] op, so a daemon that is never asked
    for metrics emits byte-identical frames. *)

type t

val schema : string
(** ["rbp-metrics/1"], the [metrics_json] envelope marker. *)

val make : ?clock:(unit -> float) -> ?gc_stat:(unit -> Gc.stat) -> unit -> t
(** The clock feeds the rolling windows and the uptime field; it
    defaults to a frozen zero so pure counter users need no time
    source. [gc_stat] (default {!Gc.quick_stat}) feeds the [gc] block
    of {!metrics_json}; tests inject a frozen one to keep the document
    byte-stable. *)

val bump : t -> Obs.Counter.t -> int -> unit
val get : t -> Obs.Counter.t -> int

val absorb : t -> Obs.Trace.t -> unit
(** Fold a finished per-request trace's counter totals into the table
    (labels are collapsed — the service reports totals). Zero totals
    touch no cell. *)

val snapshot : t -> (string * int) list
(** Every touched cell as [(name, value)], sorted by name. *)

(** {2 Recording}

    Each call records one service decision in every cell it feeds, so
    no caller pairs a {!bump} with a [note_*]. *)

val note_admitted : t -> unit
(** One admitted compile request: [serve.admitted] and the request-rate
    window. *)

val note_shed : t -> unit
(** One overload shed: [serve.shed] and the overload-rate window. *)

val note_result : t -> Proto.result_reply -> unit
(** One answered compile request — called once per [Result] reply, by
    the server's recording point, before the reply is written. Bumps
    the status counter ([serve.completed] / [serve.failed] /
    [serve.timeouts], after {!Proto.status_of_reply}) and
    [serve.cache_hits] for an ok cache hit, and records the reply's
    timing in the histograms and windows. The per-rung compile
    histogram is fed only when the reply names a rung and was not
    served from cache. *)

val metrics_json : t -> Obs.Json.t
(** The full [rbp-metrics/1] document: [schema], [uptime_s], the counter
    snapshot, [latency.{queue_ms,compile_ms,total_ms}] and per-rung
    summaries ([count]/[sum]/[p50]/[p90]/[p99]/[max] each), and
    [windows.{10s,60s}] rolling rates ([requests_per_s],
    [overloads_per_s], [results_per_s], [cache_hit_ratio]), and a [gc]
    block ([live_words], [heap_words], [minor_collections],
    [major_collections], [compactions], [minor_words]). Key order is
    fixed and rungs are sorted, so a fake clock plus a frozen [gc_stat]
    makes the whole document byte-stable. *)
