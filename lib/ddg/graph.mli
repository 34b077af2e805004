(** Data dependence graphs (the paper's "DDDs").

    Nodes are operation ids, edges are {!Dep.t} labels. Construction
    follows Section 4's framework: register dependences (flow, anti,
    output — including loop-carried distance-1 flow for registers read
    before being redefined, the recurrences that bound RecMII) plus
    memory-ordering dependences with exact affine distances (see
    {!Memdep}). Loop-carried register anti/output dependences are omitted
    by design: modulo variable expansion renames per-iteration instances
    (the standard assumption of Rau-style pipelining, realized here by
    [Sched.Expand.flatten]).

    Latency conventions: flow edges carry the defining op's latency; anti
    edges 0 (operands are read at issue); output edges 1; memory flow
    edges the store latency; other memory edges 1.

    Every distance-0 edge points forward in body order (register edges
    join an earlier op to a later one, and a memory edge at distance 0
    needs the same), so [order] is a topological order of the
    loop-independent subgraph. Each node's {!succs} and {!preds} list
    its same-iteration register edges first (in body order of the other
    end), then its loop-carried register edges, then its memory edges:
    schedulers that evict in edge order depend on it. *)

type t = private {
  graph : Dep.t Graphlib.Digraph.t;
  ops : (int, Ir.Op.t) Hashtbl.t;  (** op id -> op *)
  order : int list;                (** op ids in body (textual) order *)
  latency : Mach.Latency.t;
}

val of_loop : ?latency:Mach.Latency.t -> Ir.Loop.t -> t
(** Dependences of a single-block loop, including loop-carried edges.
    [latency] defaults to {!Mach.Latency.paper}. *)

val of_block : ?latency:Mach.Latency.t -> Ir.Block.t -> t
(** Dependences of straight-line code: no loop-carried edges. *)

val op : t -> int -> Ir.Op.t
(** Raises [Not_found] on unknown id. *)

val ops_in_order : t -> Ir.Op.t list
val size : t -> int
val graph : t -> Dep.t Graphlib.Digraph.t
val latency_of : t -> Ir.Op.t -> int

val preds : t -> int -> (int * Dep.t) list
val succs : t -> int -> (int * Dep.t) list

val loop_independent : t -> Dep.t Graphlib.Digraph.t
(** Subgraph of distance-0 edges; always a DAG for well-formed input. *)

val critical_path_length : t -> int
(** Longest latency chain through distance-0 edges plus the final op's own
    latency: a lower bound on any single-iteration schedule length. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering of the dependence graph: flow edges solid, anti
    dotted, output/memory dashed; loop-carried edges annotated with their
    distance. *)
