(** Undirected graphs with accumulating float weights on nodes and edges —
    the shape of the register component graph.

    Repeated {!add_edge_weight} calls on the same (unordered) pair sum into
    a single weight, exactly as the paper's "either add a new edge in the
    RCG with value w, or add w to the current value of the edge". Weights
    may be negative (repulsion) or infinite (hard machine constraints). *)

type t

val create : ?size_hint:int -> unit -> t
val add_node : t -> int -> unit

val add_node_weight : t -> int -> float -> unit
(** Accumulates onto the node's weight (adds the node if new). *)

val add_edge_weight : t -> int -> int -> float -> unit
(** Accumulates onto the unordered edge's weight (adds endpoints if new).
    Self-edges are rejected with [Invalid_argument]. *)

val mem_node : t -> int -> bool
val nodes : t -> int list
(** Ascending order. *)

val node_count : t -> int
val edge_count : t -> int
val node_weight : t -> int -> float
(** 0 for unknown nodes. *)

val edge_weight : t -> int -> int -> float
(** 0 when no edge exists. *)

val mem_edge : t -> int -> int -> bool

val neighbors : t -> int -> (int * float) list
(** Adjacent nodes with edge weights, ascending by node id. *)

val degree : t -> int -> int

val edges : t -> (int * int * float) list
(** Each undirected edge once, with [fst < snd], sorted. *)

val components : t -> int list list
(** Connected components, each sorted ascending, ordered by smallest
    member. *)

val copy : t -> t

(** {2 Ranks}

    Rank [i] is the [i]-th smallest node id, for [0 <= i < node_count].
    The rows behind {!neighbors} are built once, on the first read after
    a change, so reading a finished graph by rank costs no hashing. *)

val node_of_rank : t -> int -> int

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row g i f] calls [f j w] for each neighbour of rank [i], by
    ascending rank [j], with the edge weight [w] (the order of
    {!neighbors}). *)

(** {2 Slots}

    A node's slot is fixed when the node is added. Resolving a node
    once and accumulating through its slot spares the hash lookups of
    {!add_node_weight} and {!add_edge_weight}, whose sums these equal. *)

val slot : t -> int -> int
(** The node's slot, adding the node if new. *)

val add_node_weight_at : t -> int -> float -> unit
val add_edge_weight_at : t -> int -> int -> float -> unit
(** Between two distinct slots; [Invalid_argument] on one slot twice. *)
