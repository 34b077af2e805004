(** Data dependence graphs (the paper's "DDDs").

    Construction follows Section 4's framework: register dependences
    (flow, anti, output — including loop-carried distance-1 flow for
    registers read before being redefined, the recurrences that bound
    RecMII) plus memory-ordering dependences with exact affine distances
    (see {!Memdep}). Loop-carried register anti/output dependences are
    omitted by design: modulo variable expansion renames per-iteration
    instances (the standard assumption of Rau-style pipelining, realized
    here by [Sched.Expand.flatten]).

    Latency conventions: flow edges carry the defining op's latency; anti
    edges 0 (operands are read at issue); output edges 1; memory flow
    edges the store latency; other memory edges 1.

    {2 Representation}

    The graph is dense and built once per body. Its nodes are id ranks:
    node [i] holds the [i]-th smallest op id. [ids], [order] and
    [position] map between nodes, op ids and body positions, and the
    edges are stored as compressed rows: node [v]'s predecessor edges
    are the slots [pred_off.(v)] to [pred_off.(v + 1) - 1] of the
    [pred_*] arrays (the far end's node, latency, distance and
    {!Dep.kind_rank}), and likewise its successor edges in the [succ_*]
    arrays. Nothing in it is indexed by op id, so a body may number its
    ops freely.

    {2 Row order}

    The build emits every edge once, in a fixed order: first the
    register edges, pair by pair in body order (for each earlier op [p],
    the later ops [q] ascending; for each pair flow, then anti, then
    output), then the loop-carried register flow edges (by the using
    op's body position), then the memory edges (pair by pair in body
    order). Each row lists its edges in that emission order. So a node's
    successors and predecessors list its same-iteration register edges
    first (in body order of the other end), then its loop-carried
    register edges, then its memory edges. This order is a contract:
    Rau's scheduler evicts successors in it, [Verify.Sched_check] lists
    violated edges in it, [Analysis.Validate] keeps the first of a key's
    duplicates by it, and {!pp} and {!to_dot} print it.

    Every distance-0 edge points forward in body order (register edges
    join an earlier op to a later one, and a memory edge at distance 0
    needs the same), so body order is a topological order of the
    loop-independent subgraph. *)

type t = private {
  latency : Mach.Latency.t;
  body : Ir.Op.t list;  (** the ops in body (textual) order *)
  ops : Ir.Op.t array;  (** node -> op *)
  ids : int array;  (** node -> op id, ascending *)
  order : int array;  (** body position -> node *)
  position : int array;  (** node -> body position *)
  pred_off : int array;
      (** node [v]'s predecessor edges are [pred_off.(v)] to
          [pred_off.(v + 1) - 1] *)
  pred_node : int array;  (** edge -> source node *)
  pred_lat : int array;
  pred_dist : int array;
  pred_kind : int array;  (** edge -> {!Dep.kind_rank} *)
  succ_off : int array;  (** likewise for successor edges *)
  succ_node : int array;  (** edge -> destination node *)
  succ_lat : int array;
  succ_dist : int array;
  succ_kind : int array;
  succ_edge : int array;  (** successor slot -> its emission index *)
  upper_bound : int;
      (** total latency of all operations, plus 1 (see
          {!Minii.upper_bound}) *)
  graph : Dep.t Graphlib.Digraph.t;  (** see {!graph} *)
}

val of_loop : ?latency:Mach.Latency.t -> Ir.Loop.t -> t
(** Dependences of a single-block loop, including loop-carried edges.
    [latency] defaults to {!Mach.Latency.paper}. *)

val of_block : ?latency:Mach.Latency.t -> Ir.Block.t -> t
(** Dependences of straight-line code: no loop-carried edges. *)

val add_edges : t -> (int * int * Dep.t) list -> t
(** [add_edges t extra]: a graph with [t]'s edges followed by the
    [(src id, dst id, label)] edges of [extra], emitted in list order:
    for building deliberately wrong DDGs when testing the checkers that
    read one. Raises [Not_found] on an id that is not an op of [t]. *)

val index : t -> int -> int
(** The node of an op id. Raises [Not_found] for an id not in the DDG. *)

val op : t -> int -> Ir.Op.t
(** Raises [Not_found] on unknown id. *)

val ops_in_order : t -> Ir.Op.t list
val size : t -> int
val edge_count : t -> int
val latency_of : t -> Ir.Op.t -> int

val succ_label : t -> int -> Dep.t
(** The label of successor slot [k]. *)

val pred_label : t -> int -> Dep.t

val preds : t -> int -> (int * Dep.t) list
(** An op id's predecessors as (op id, label), in row order. *)

val succs : t -> int -> (int * Dep.t) list

val heights : t -> ii:int -> int array option
(** Height priority under a candidate II, by node: [H(v)] is the max
    over out-edges of [H(dst) + latency - II × distance], at least 0.
    Bellman-Ford over the successor rows (the least fixpoint, whatever
    the order rounds visit them in); [None] when it has not converged
    after [size + 2] rounds, i.e. the II-adjusted graph has a positive
    cycle (II < RecMII). *)

val self_edges_feasible : t -> ii:int -> bool
(** Every self-dependence satisfied at the II:
    [latency <= II × distance]. *)

val graph : t -> Dep.t Graphlib.Digraph.t
(** The graph as a {!Graphlib.Digraph} over op ids, for the readers
    that do not need the rows (see DESIGN.md). It is derived from the
    successor rows the first time it is used
    ({!Graphlib.Digraph.deferred}) and then shared: edges are added in
    emission order ([succ_edge]), so its [succs] and [preds] list each
    node's edges in row order. It must not be
    changed; {!add_edges} builds a graph with more edges. *)

val loop_independent : t -> Dep.t Graphlib.Digraph.t
(** Subgraph of distance-0 edges, as a fresh {!Graphlib.Digraph} with
    the edges added source by source in ascending id order; always a
    DAG for well-formed input. *)

val critical_path_length : t -> int
(** Longest latency chain through distance-0 edges plus the final op's own
    latency: a lower bound on any single-iteration schedule length. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering of the dependence graph: flow edges solid, anti
    dotted, output/memory dashed; loop-carried edges annotated with their
    distance. *)
