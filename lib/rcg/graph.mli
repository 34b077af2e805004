(** The register component graph (RCG).

    Nodes are symbolic registers; accumulated edge weights encode how
    strongly two registers want to share a bank (positive) or be split
    apart (negative). Node weights order the greedy partitioner's
    placement. [pins] carry hard pre-colouring constraints (Section 4.1's
    idiosyncratic-architecture support): a pinned register must land in
    its bank, and infinitely negative edges keep registers apart. *)

type t

val create : unit -> t

val add_register : t -> Ir.Vreg.t -> unit
(** Idempotent. *)

val add_node_weight : t -> Ir.Vreg.t -> float -> unit
val add_edge_weight : t -> Ir.Vreg.t -> Ir.Vreg.t -> float -> unit
(** Accumulate (same-pair contributions sum). Self edges are ignored (a
    register trivially shares a bank with itself). *)

type node
(** A register resolved once: accumulating through it costs no hashing. *)

val node : t -> Ir.Vreg.t -> node
(** Adds the register if new. *)

val add_node_weight_at : t -> node -> float -> unit
val add_edge_weight_at : t -> node -> node -> float -> unit
(** As {!add_node_weight} and {!add_edge_weight}; the two nodes must be
    distinct registers. *)

val pin : t -> Ir.Vreg.t -> int -> unit
(** Force the register into the given bank. Raises [Invalid_argument] on
    conflicting pins. *)

val pinned : t -> Ir.Vreg.t -> int option

val keep_apart : t -> Ir.Vreg.t -> Ir.Vreg.t -> unit
(** Infinitely negative edge: the partitioner never benefits from placing
    these together (e.g. [A = B op C] with per-bank operand rules). *)

val registers : t -> Ir.Vreg.t list
(** Ascending by register id. *)

val node_count : t -> int
val edge_count : t -> int
val node_weight : t -> Ir.Vreg.t -> float
val edge_weight : t -> Ir.Vreg.t -> Ir.Vreg.t -> float
val neighbors : t -> Ir.Vreg.t -> (Ir.Vreg.t * float) list

val components : t -> Ir.Vreg.t list list
(** Connected components — the paper's natural units of bank assignment
    ("values that are not connected in the graph are good candidates to
    be assigned to separate register banks"). *)

val mean_positive_edge_weight : t -> float
(** Average over positive-weight edges; 1.0 when there are none. The
    partitioner scales its balance penalty by this. *)

val by_weight_desc : t -> Ir.Vreg.t list
(** Registers in decreasing node-weight order (ties: ascending id) — the
    greedy placement order of Figure 4. *)

(** {2 Nodes by rank}

    Node [i] is the [i]-th register in ascending id order, for
    [0 <= i < node_count] (its {!Graphlib.Ungraph} rank): what the
    partitioner's inner loop reads instead of {!neighbors}. *)

val register : t -> int -> Ir.Vreg.t

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g i f] calls [f j w] for each neighbour [j] of node
    [i] with edge weight [w], in ascending [j] (the order of
    {!neighbors}). *)

val placement_order : t -> int array
(** The nodes of {!by_weight_desc}, in its order. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?assignment:(Ir.Vreg.t -> int option) -> t -> string
(** Graphviz rendering: solid edges attract (weight as label), dashed
    edges repel; nodes are coloured by bank when [assignment] is given. *)
