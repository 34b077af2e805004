(** A dense, read-only view of a DDG for the modulo schedulers.

    Built once per scheduling call and shared by every candidate II:
    node [i] is the [i]-th smallest op id, and the dependence edges are
    stored as compressed rows of (node, latency, distance) triples —
    predecessor rows in {!Graphlib.Digraph.preds} order, successor rows
    in {!Graphlib.Digraph.succs} order. Read in node order, the
    successor rows are exactly {!Graphlib.Digraph.edges}: the flat edge
    list that {!heights} relaxes. Rau's scheduler evicts in these
    orders, so they are part of its decisions. *)

type t = private {
  ids : int array;  (** node -> op id, ascending *)
  pred_off : int array;
      (** node [i]'s predecessor edges are [pred_off.(i)] to
          [pred_off.(i + 1) - 1] *)
  pred_node : int array;  (** edge -> source node *)
  pred_lat : int array;
  pred_dist : int array;
  succ_off : int array;  (** likewise for successor edges *)
  succ_node : int array;  (** edge -> destination node *)
  succ_lat : int array;
  succ_dist : int array;
}

val of_ddg : Ddg.Graph.t -> t

val size : t -> int

val index : t -> int -> int
(** Node of an op id. Raises [Not_found] for an id not in the DDG. *)

val heights : t -> ii:int -> int array option
(** Height priority under a candidate II, by node: [H(v)] is the max
    over out-edges of [H(dst) + latency - II × distance], at least 0.
    Bellman-Ford over the edges; [None] when it has not converged after
    [size + 2] rounds, i.e. the II-adjusted graph has a positive cycle
    (II < RecMII). *)

val self_edges_feasible : t -> ii:int -> bool
(** Every self-dependence satisfied at the II:
    [latency <= II × distance]. *)
