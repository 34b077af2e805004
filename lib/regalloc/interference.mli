(** Interference graphs for graph-colouring register allocation.

    Chaitin's construction: walking the code backwards, each definition
    interferes with every register live after it (except itself, and —
    for copies — except the copy source, enabling coalescing-friendly
    colourings). Registers live at region entry pairwise interfere. The
    graph also records def/use counts for spill-cost estimation.

    The graph is dense. Its nodes are numbered [0 .. size-1] in
    [Ir.Vreg.compare] order, and each node's neighbours are one bit row
    over the registers of the code. Partitioned allocation builds every
    bank's graph from one {!Liveness.dense} pass: a definition's edges
    are the live row after it, masked to its bank. *)

type t

val build_banks :
  banks:int -> bank_of:(Ir.Vreg.t -> int) -> Liveness.dense -> t array
(** One graph per bank [0 .. banks-1]. [bank_of] is asked once per
    register; a register it puts outside [0 .. banks-1] belongs to no
    graph, and neither appears nor interferes. Each graph is the one
    {!build_filtered} builds for that bank. *)

val build : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> t
(** Straight-line or loop-body code (pass the appropriate live-out, see
    {!Liveness.loop_live_out}). Registers live-in but never mentioned by
    the ops still appear as nodes when they occur in [live_out]. *)

val build_filtered :
  keep:(Ir.Vreg.t -> bool) -> Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> t
(** Restrict the graph to registers satisfying [keep] — the per-bank view
    used by partitioned allocation (registers in other banks neither
    appear nor interfere). *)

(** {2 Nodes} *)

val size : t -> int
val reg : t -> int -> Ir.Vreg.t
(** The register of node [v]. *)

val node : t -> Ir.Vreg.t -> int
(** The node of a register, or [-1] when it is not in the graph. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] calls [f] on each neighbour of node [v],
    ascending. *)

val node_degree : t -> int -> int
val node_occurrences : t -> int -> int
val edge_count : t -> int

(** {2 Registers} *)

val registers : t -> Ir.Vreg.t list
(** In [Ir.Vreg.compare] order. *)

val interferes : t -> Ir.Vreg.t -> Ir.Vreg.t -> bool
val neighbors : t -> Ir.Vreg.t -> Ir.Vreg.t list
val degree : t -> Ir.Vreg.t -> int
val occurrences : t -> Ir.Vreg.t -> int
(** Static def+use count — the numerator of Chaitin's spill cost. *)

val max_clique_lower_bound : t -> int
(** Max over the program points before each op of simultaneously live
    kept registers — a lower bound on the chromatic number (exact
    register pressure). *)

val pp : Format.formatter -> t -> unit
