(** Strongly connected components (Tarjan) and derived queries.

    RecMII computation needs the recurrence circuits of the DDG; every
    circuit lives inside one SCC, so MinII analysis runs per non-trivial
    component. *)

val tarjan : 'e Digraph.t -> int list list
(** SCCs in Tarjan's emission order, which is reverse topological: every
    edge leaving a component goes to a component emitted before it.
    Each component's nodes are sorted ascending. *)

val nontrivial : 'e Digraph.t -> int list list
(** Components that contain a cycle: more than one node, or a single node
    with a self-edge. *)

val condensation : 'e Digraph.t -> int array * unit Digraph.t
(** [(comp_of, dag)]. [comp_of] is indexed by node id and holds the id
    of the node's component: dense ids from 0, in {!tarjan} order; ids
    absent from the graph map to -1. [dag] has one node per component
    and one (deduplicated) edge per pair of components joined by an
    edge. *)
