(** Independent dependence analysis over loop bodies.

    Recomputes the full dependence set of a single-block loop — register
    flow/anti/output and memory ordering, with cross-iteration
    distances — from first principles: register dependences fall out of
    the {!Reachdef} dataflow facts (a use reading a definition at
    distance [d] {e is} a flow dependence at distance [d]; a
    same-iteration read forbids later redefinitions, giving anti edges),
    and memory dependences from the {!Aaddr} affine solve. Nothing here
    consults [Ddg.Graph]'s edge construction — that independence is what
    makes {!Validate}'s diff a translation validation rather than a
    tautology.

    Edge conventions match the DDG contract so the two sets are directly
    comparable: flow latency is the defining op's latency, anti 0,
    output 1, memory flow the store's latency, other memory edges 1.
    Loop-carried register anti/output dependences are not generated —
    modulo variable expansion renames per-iteration instances, the
    standing assumption of the scheduler (see [Ddg.Graph]). *)

type edge = {
  src : int;  (** op id *)
  dst : int;  (** op id *)
  kind : Ddg.Dep.kind;
  latency : int;
  distance : int;
}

(** The distinct edges, sorted by (src, dst, kind, distance), held as
    parallel arrays: edge [j] is [srcs.(j) -> dsts.(j)], of kind
    [kind_of_rank ranks.(j)]. *)
type t = {
  count : int;  (** number of edges *)
  srcs : int array;  (** op ids *)
  dsts : int array;  (** op ids *)
  ranks : int array;  (** {!kind_rank} of each edge's kind *)
  distances : int array;
  latencies : int array;
  reachdef : Reachdef.t;
  stats : Solver.stats;  (** the reaching-definitions solve *)
}

val of_loop : ?latency:Mach.Latency.t -> Ir.Loop.t -> t
(** [latency] defaults to [Mach.Latency.paper], the table [Ddg.Graph]
    uses. Edges are gathered into one int array and sorted once on
    their int fields; registers are numbered as {!Reachdef} numbers
    them. *)

val edges : t -> edge list
(** The edges as records, in order. *)

val kind_rank : Ddg.Dep.kind -> int
(** {!Ddg.Dep.kind_rank}: the total order on kinds used for the
    deterministic edge sort. *)

val kind_of_rank : int -> Ddg.Dep.kind
(** {!Ddg.Dep.kind_of_rank}. *)

val edge_to_string : edge -> string
