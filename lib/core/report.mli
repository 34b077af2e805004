(** Rendering of the paper's tables and figures from experiment runs. *)

val table1 : ideal_ipc:float -> Experiment.run list -> Util.Table.t
(** "IPC of Clustered Software Pipelines": one column per configuration,
    an Ideal row and a Clustered row. *)

val table2 : Experiment.run list -> Util.Table.t
(** "Degradation Over Ideal Schedules — Normalized": arithmetic and
    harmonic mean rows. *)

val figure_histogram : Experiment.run -> Experiment.run -> title:string -> Util.Table.t
(** One of Figures 5-7: per-bucket percentage of loops for the embedded
    and copy-unit runs of one cluster count. *)

val table1_md : ideal_ipc:float -> Experiment.run list -> string
(** Table 1 as the exact markdown block of EXPERIMENTS.md: paper-constant
    rows plus the measured rows, column layout pinned byte-for-byte. *)

val table2_md : Experiment.run list -> string

type gap_row = {
  gap_label : string;        (** geometry, e.g. ["2x8"] *)
  gap_loops : int;           (** exact-slice size *)
  gap_optimal : int;         (** solved to proven optimality *)
  gap_bound : int;
  gap_exhausted : int;
  gap_greedy_optimal : int;  (** greedy matched a proven optimum *)
  gap_mean_greedy_ii : float;    (** means over the proven-optimal loops *)
  gap_mean_exact_ii : float;
  gap_mean_greedy_copies : float;
  gap_mean_exact_copies : float;
}
(** One Table-3 row. A plain record (not [Exact.Gap.row]) so this
    library needs no dependency on the solver — the CLI converts. *)

val table3_heading : string

val table3_md : gap_row list -> string
(** "Greedy heuristic vs. provably optimal bank assignment": per
    geometry the status counts, the share of loops where greedy is
    provably optimal, and like-for-like II / copy means over the loops
    solved to optimality. Empty-population cells render as ["-"]. *)

val table3 : gap_row list -> Util.Table.t
(** The same data for terminal reading ([rbp report -f text]). *)

val paper_tables_md : ?gap:gap_row list -> ideal_ipc:float -> Experiment.run list -> string
(** Both tables with their EXPERIMENTS.md [##] headings — what
    [rbp report -f md] prints. [gap] (when non-empty) appends Table 3. *)

type engine_telemetry = {
  jobs : int;  (** engine [-j] level the sweep ran at *)
  cache_hits : int;  (** result-cache hits across the sweep *)
  wall_s : float;  (** whole-sweep wall time; host-dependent *)
}

val paper_tables_json :
  ?engine:engine_telemetry ->
  seed:int ->
  loops:int ->
  ideal_ipc:float ->
  Experiment.run list ->
  Obs.Json.t
(** The same aggregates in the [rbp-bench/1] telemetry schema, so a
    report can be fed straight to {!Perfdiff} — what
    [rbp report -f json] writes. [engine]
    appends [jobs], [cache_hits] and [wall_s] (read by
    {!Perfdiff.engine_note}, never gated); without it the document is
    deterministic. *)

val check_tables_in :
  ?gap:gap_row list ->
  ideal_ipc:float ->
  Experiment.run list ->
  string ->
  (unit, string) result
(** [check_tables_in ~ideal_ipc runs text] verifies every regenerated
    table block (heading, blank line, table, trailing blank) appears
    verbatim in [text] — the [rbp report --check EXPERIMENTS.md]
    freshness gate. [gap] (when non-empty) extends the gate to Table 3.
    [Error] names the missing tables. *)

val failures_summary : Experiment.run list -> string
(** Human-readable list of loops that failed to pipeline (expected to be
    empty). *)

val to_csv : Experiment.run list -> string
(** Per-loop results of every run as CSV (header line included): columns
    config, loop, ops, ideal_ii, clustered_ii, degradation, ipc_ideal,
    ipc_clustered, copies — what [rbp report -f csv] prints, for plotting
    outside the repo. *)
