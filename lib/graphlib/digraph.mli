(** Directed multigraphs over integer node ids with labelled edges.

    The workhorse behind DDGs and schedulers: nodes are operation ids,
    edge labels carry dependence information. Imperative (hashtable-based)
    because dependence graphs are built once and queried heavily. *)

type 'e t

type 'e edge = { src : int; dst : int; label : 'e }

val create : ?size_hint:int -> unit -> 'e t

val deferred : ?size_hint:int -> ('e t -> unit) -> 'e t
(** [deferred fill]: a graph built on first use. The first operation
    that reads or changes it creates an empty graph and runs [fill] on
    it; until then it costs one closure. As with [Lazy.t], two domains
    must not make that first use at once. *)

val add_node : 'e t -> int -> unit
(** Idempotent. *)

val add_edge : 'e t -> src:int -> dst:int -> 'e -> unit
(** Adds both endpoints as nodes. Parallel edges are kept (a DDG can hold
    both a flow and an anti dependence between the same pair). *)

val mem_node : 'e t -> int -> bool
val nodes : 'e t -> int list
(** Ascending id order (deterministic). *)

val node_count : 'e t -> int
val edge_count : 'e t -> int
val edges : 'e t -> 'e edge list
(** Deterministic order: by source node id, then insertion order. *)

val succs : 'e t -> int -> 'e edge list
val preds : 'e t -> int -> 'e edge list
val out_degree : 'e t -> int -> int
val in_degree : 'e t -> int -> int

val fold_edges : ('e edge -> 'a -> 'a) -> 'e t -> 'a -> 'a
val iter_edges : ('e edge -> unit) -> 'e t -> unit

val map_labels : ('e -> 'f) -> 'e t -> 'f t

val copy : 'e t -> 'e t

val transpose : 'e t -> 'e t
(** Reverse every edge. *)
