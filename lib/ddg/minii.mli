(** Minimum initiation interval analysis.

    Modulo scheduling repeats one kernel schedule every II cycles; II is
    bounded below by resource pressure (ResMII) and by recurrence circuits
    (RecMII). Rau's iterative modulo scheduler starts at
    [MinII = max ResMII RecMII] and increases II until a legal schedule is
    found. *)

val res_mii : width:int -> int -> int
(** [res_mii ~width n_ops]: with fully general functional units,
    ⌈n_ops / width⌉ (at least 1). *)

val res_mii_clustered :
  machine:Mach.Machine.t -> ops_per_cluster:int array -> copies_per_cluster:int array -> int
(** Cluster-aware resource bound. For the embedded model a cluster's load
    is its operations plus the copies it receives; for the copy-unit model
    copies instead bound II through per-cluster copy ports and through the
    global busses (Σ copies / busses). *)

val rec_mii : Graph.t -> int
(** Smallest II such that no recurrence circuit C has
    Σ latency(C) > II · Σ distance(C); 1 when the DDG is acyclic.
    Every circuit lives inside one strongly connected component, so each
    non-trivial SCC (found by {!Graphlib.Scc.nontrivial_components} over
    the successor rows) is searched on its own: its internal edges are
    copied once into int arrays, and II is binary-searched with
    Bellman-Ford positive-cycle detection under edge weight
    [latency − II·distance]. Each search runs from the largest II found
    so far up to 1 + the sum over the SCC's nodes of their largest
    intra-SCC edge latency. The result is the maximum over the SCCs,
    clamped to {!upper_bound}: a circuit of distance 0, which no II
    satisfies, yields [upper_bound]. *)

val min_ii : width:int -> Graph.t -> int
(** [max (res_mii ...) (rec_mii ...)]. *)

val upper_bound : Graph.t -> int
(** A trivially schedulable II: total latency of all operations, plus 1.
    Any II at or above this admits a sequential schedule. Computed once,
    when the graph is built. *)
