(** ASAP/ALAP analysis and the paper's "Flexibility" metric.

    Flexibility(O) is the slack of a DDD node plus one: the difference
    between the earliest cycle O could issue (longest latency path from
    any source through loop-independent dependences) and the latest cycle
    it could issue without stretching the critical path. Critical-path
    operations have Flexibility 1; the RCG weighting divides by this, so
    constrained values weigh more. *)

type t

val analyze : Ddg.Graph.t -> t
(** Analysis over the distance-0 (loop-independent) subgraph. Body order
    is a topological order of its edges (see {!Ddg.Graph}), so this is
    one forward and one backward pass over it. *)

val asap : t -> int -> int
(** Earliest issue cycle of an op id. Raises [Not_found]. *)

val alap : t -> int -> int
(** Latest issue cycle that preserves the critical-path length. *)

val slack : t -> int -> int
(** [alap - asap], >= 0. *)

val flexibility : t -> int -> int
(** [slack + 1], the paper's divide-by-zero-safe variant. *)

val is_critical : t -> int -> bool
(** [slack = 0]. *)

val critical_path : t -> int
(** Latency-weighted critical path length of the body. *)
