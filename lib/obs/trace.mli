(** The instrumentation context: a per-run span tree plus the counter
    and gauge registry.

    Every instrumented entry point takes an [Trace.t option] (by
    convention a parameter named [obs]); with [None] each probe is a
    single branch, so uninstrumented hot paths stay hot. The context is
    deliberately mutable and single-threaded — one context per
    compilation, like one [Buffer.t] per output.

    Probes never raise: an unbalanced close or an [add_attr] outside any
    span is ignored, because instrumentation must not change what the
    pipeline computes. *)

type span = {
  name : string;  (** taxonomy entry, e.g. ["schedule.ideal"] *)
  start : float;  (** clock reading at open *)
  mutable attrs : (string * string) list;
  mutable stop : float;  (** [nan] while the span is open *)
  mutable children : span list;  (** chronological once closed *)
}

type t

val make : ?events:bool -> clock:Clock.t -> unit -> t
(** Fresh empty context. Pass [Unix.gettimeofday] (or any monotonic
    reader) in binaries, {!Clock.fake} in tests. With [~events:false]
    the context keeps spans, counters and gauges but no event stream:
    {!emit} still tallies every event into its cells, so every counter
    and gauge is the same as in a full context, while {!events} stays
    empty and {!event_count} 0. A caller that reads only spans and
    counters (the service's per-request trace) saves the list. The
    default keeps the stream. *)

val span : t option -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span obs name f] runs [f] inside a span; the span closes (and its
    duration is read) even when [f] raises. With [None] this is exactly
    [f ()]. Nested calls build the tree. *)

val add_attr : t option -> string -> string -> unit
(** Attach an attribute to the innermost open span — for values only
    known mid-flight, like the II a scheduler finally achieved. *)

val incr : t option -> ?label:string -> Counter.t -> int -> unit
(** Add [n] to a counter cell; [label] selects a labelled dimension
    (e.g. the rung name of a ladder transition). Never used for a
    {e tally} cell of {!Counter}: {!emit} feeds those. *)

val emit : t option -> Events.t -> unit
(** Append one decision-provenance event to the stream and tally it
    into the {!Counter} cells it feeds (one function maps each event to
    its cells), so a derived cell exists exactly when one of its events
    occurred. With [None] this is a single branch; sites that would
    otherwise allocate the event payload for nothing should guard with
    [obs <> None]. *)

val events : t -> Events.t list
(** Every emitted event, oldest first — the order decisions were
    taken, which is what [rbp explain] narrates. *)

val event_count : t -> int

val iter_events : (Events.t -> unit) -> t -> unit

val set_gauge : t option -> ?label:string -> Counter.gauge -> int -> unit
(** Record a gauge observation; the cell keeps the last and the max.
    Like {!incr}, never used for a {e tally} cell. *)

val merge : into:t -> t -> unit
(** [merge ~into child] folds a completed child context into [into]:
    the child's finished root spans become children of [into]'s
    innermost open span (or new roots when none is open, appended after
    the existing ones), counter cells are summed, gauge cells keep the
    child's last value and the max of both maxima, and the child's
    events are appended after [into]'s, preserving their emission
    order.

    This is the fold half of the engine's per-job observability
    contract: parallel jobs each write a private context (contexts are
    single-threaded by design), and the engine merges them on the
    submitting domain, in submission order, after the pool barrier —
    so every total and the event stream are deterministic functions of
    the job list, independent of how many domains ran it. The child
    must be quiescent (no open spans of its own are merged) and must
    not be used afterwards. *)

val roots : t -> span list
(** Completed top-level spans, oldest first. *)

val duration : span -> float
(** [stop - start]; 0.0 for a span still open. *)

val counters : t -> (string * string option * int) list
(** All counter cells as [(name, label, value)], sorted — the stable
    order every exporter uses. *)

val gauges : t -> (string * string option * int * int) list
(** All gauge cells as [(name, label, last, max)], sorted. *)

val counter_value : t -> ?label:string -> Counter.t -> int
(** One cell's value (0 when never touched). *)

val counter_total : t -> Counter.t -> int
(** Sum over every label of one counter. *)

val iter_spans : (depth:int -> span -> unit) -> t -> unit
(** Pre-order walk over the whole forest with depth (roots at 0). *)
