(** Strongly connected components (Tarjan) and derived queries.

    RecMII computation needs the recurrence circuits of the DDG; every
    circuit lives inside one SCC, so MinII analysis runs per non-trivial
    component.

    The search runs over compressed rows: nodes [0 .. n - 1] with
    [n = Array.length off - 1], node [v]'s successors being
    [succ.(off.(v))] to [succ.(off.(v + 1) - 1)]. Roots are tried in
    ascending node order and successors in row order; the {!Digraph}
    entry points number the graph's nodes in ascending id order, build
    the rows from {!Digraph.succs} and call it. *)

val components : off:int array -> succ:int array -> int list list
(** SCCs in Tarjan's emission order, which is reverse topological: every
    edge leaving a component goes to a component emitted before it.
    Each component's nodes are sorted ascending. *)

val nontrivial_components : off:int array -> succ:int array -> int list list
(** The components that contain a cycle: more than one node, or a
    single node with a self-edge. *)

val tarjan : 'e Digraph.t -> int list list
(** {!components} of the graph, over node ids. *)

val nontrivial : 'e Digraph.t -> int list list
(** {!nontrivial_components} of the graph, over node ids. *)

val condensation : 'e Digraph.t -> int array * unit Digraph.t
(** [(comp_of, dag)]. [comp_of] is indexed by a node's rank in
    {!Digraph.nodes} (ascending id) and holds the id of the node's
    component: dense ids from 0, in {!tarjan} order. [dag] has one node
    per component and one (deduplicated) edge per pair of components
    joined by an edge. *)
