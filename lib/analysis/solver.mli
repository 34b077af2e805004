(** Generic worklist fixpoint solver.

    A dataflow problem is a {!Lattice.DOMAIN} plus a node transfer
    function and an optional edge transfer (the identity for ordinary
    edges; the loop back edge uses it to age facts across iterations,
    e.g. bumping reaching-definition distances). Nodes are integers
    [0 .. nodes-1]; for the single-block loops of this code base they
    are body positions and the graph is a ring, but the solver accepts
    any finite edge list, so future multi-block analyses reuse it
    unchanged.

    The solver runs the classic chaotic iteration: seed every node,
    recompute a node's input as the join of its predecessors' outputs
    (plus its boundary fact), re-queue successors on change. The visit
    order is fixed, and {!stats} pins it: the worklist is FIFO, seeded
    with [0 .. nodes-1] in ascending order; a node's input is its
    boundary fact joined with its predecessors' contributions in
    ascending node order; on change its successors are appended in
    ascending node order, each only if it is not already queued.
    Duplicate edges count once. After
    [widen_after] updates of one node the join is replaced by the
    domain's widening, which bounds the chain height; a hard iteration
    budget turns a (buggy, non-monotone) diverging instance into a
    reported non-convergence instead of a hang — analyses surface that
    as an AN000 diagnostic rather than trusting a partial fixpoint. *)

type stats = {
  iterations : int;  (** node recomputations until the fixpoint *)
  widenings : int;  (** joins replaced by widening *)
  converged : bool;  (** false only when the iteration budget ran out *)
}

module type PROBLEM = sig
  module D : Lattice.DOMAIN

  val transfer : int -> D.t -> D.t
  (** Flow the fact through node [i] (input to output). *)

  val edge : src:int -> dst:int -> D.t -> D.t
  (** Transform the fact flowing along an edge; identity for all edges
      unless the problem ages facts (back edges). *)
end

module Make (P : PROBLEM) : sig
  type result = {
    input : P.D.t array;  (** fixpoint fact at each node's entry *)
    output : P.D.t array;  (** [transfer i input.(i)] *)
    stats : stats;
  }

  val solve :
    ?widen_after:int ->
    ?max_iterations:int ->
    nodes:int ->
    edges:(int * int) list ->
    init:(int -> P.D.t) ->
    unit ->
    result
  (** [init i] is the boundary fact joined into node [i]'s input (the
      contribution of edges from outside the analyzed region);
      [P.D.bottom] for interior nodes. It is called once per node, and
      facts are never mutated: the solver may hand one fact to several
      nodes. [widen_after] defaults to 8 updates per node;
      [max_iterations] to [max 256 (64 * nodes)]. Raises
      [Invalid_argument] when an edge endpoint is outside
      [0 .. nodes-1]. The graph is held in compressed adjacency arrays
      and the worklist in an int ring, so an iteration allocates only
      what the domain's operations do. *)
end

val ring : int -> (int * int) list
(** Forward ring [i -> i+1] with back edge [n-1 -> 0]: the CFG of a
    single-block loop body. *)

val ring_rev : int -> (int * int) list
(** The reversed ring — backward analyses run forward over it. *)
