(** Diagnostics from the independent dataflow analysis ([lib/analysis]).

    Bridges the analysis library's findings into the [AN0xx] diagnostic
    family: translation validation of the DDG (the analysis re-derives
    the dependence set from reaching-definitions facts and an affine
    address domain, then diffs it edge-by-edge against what [Ddg.Graph]
    built), transitively dead code only liveness iteration can see, and
    solver-convergence problems. See the code taxonomy in {!Diag}.

    The checker is total: an exception escaping the analysis engine is
    itself a finding (AN000), never a crash of the caller's pipeline. *)

val finding_diag : Analysis.Validate.finding -> Diag.t
(** The diagnostic for one DDG-diff finding — AN001/AN002 errors for the
    unsound directions, AN003–AN005 warnings for the conservative ones.
    Exposed so [rbp analyze] renders findings with the same codes the
    pipeline reports. *)

val check :
  ?obs:Obs.Trace.t ->
  ?ddg:Ddg.Graph.t ->
  ?latency:Mach.Latency.t ->
  ?remat_info:bool ->
  Ir.Loop.t ->
  Diag.t list
(** Validate [ddg] (built from the loop with [latency], default
    [Mach.Latency.paper], when absent — when present its own latency
    table wins so the comparison is apples-to-apples) against the
    independently derived dependence set, and report dead code.
    [remat_info] (default [false]) additionally emits AN008 info
    diagnostics for rematerializable constant-valued ops — off in the
    pipeline so [--strict] lints stay meaningful, on under
    [rbp analyze]. Value ranges are solved only then: AN008 is their
    one consumer here, so without it neither their AN007 entry nor their
    share of the counters appears. Liveness is solved once: the same
    solve is counted and serves the first removal round of
    {!Analysis.Liveness.dead_ops}. [obs] feeds the [analysis.*]
    counters. *)
