(** Branch-and-bound over register-to-bank assignments.

    Minimizes the lexicographic score [(MinII, copies)] of
    {!Bounds.leaf_exact} over the restricted-growth space of {!Space}.
    Three pruning devices, all sound:

    - {b incremental bounds}: assigning a register pins every op it
      decides (its cluster becomes known) and forces a cross-bank
      (register, consuming-cluster) pair for every already-placed
      operand in another bank. Pinned-op and forced-pair counts are
      maintained incrementally and fed to
      {!Ddg.Minii.res_mii_clustered}, whose value — together with the
      static bound — can only grow as the assignment extends, so a
      partial score at or above the incumbent prunes the whole subtree;
    - {b conflict-driven backjumping}: every pinned op and forced pair
      remembers the deepest register it depends on. When a prune fires,
      the smallest sufficient certificate (the k cheapest contributions
      that already saturate the binding resource, the pairs that already
      reach the incumbent's copy count) names the deepest register it
      mentions; if that is above the current branching depth, every
      sibling value in between is skipped and the search resumes there.
      The contributions are kept as count rows indexed by depth + 1
      (register-free ops at depth -1): one row per cluster for its
      pinned ops, one per cluster for the pairs into it, and one for all
      pairs. An assignment bumps its rows and its undo lowers them, and
      forced pairs live in a flat (register, cluster) array with an undo
      trail, so a certificate's k-th smallest depth is a prefix scan of
      at most [n + 1] buckets and a node allocates nothing;
    - {b leaf short-circuit}: at a full assignment the recurrence
      analysis (a binary search over the rebuilt DDG) is skipped when
      copy insertion and the resource bound alone already lose to the
      incumbent.

    The search is deterministic: no clocks, no randomness — a node
    budget bounds effort, and an optional [cancel] token (polled every
    256 nodes) aborts cooperatively for wall-clock deadlines. *)

type stats = {
  nodes : int;      (** assignments of one register to one bank tried *)
  leaves : int;     (** full leaf evaluations (including seeds) *)
  pruned : int;     (** subtrees cut by the incremental bound *)
  backjumps : int;  (** prunes whose certificate skipped sibling values *)
}

type outcome = {
  best : int array;     (** incumbent bank vector, in {!Space.t} order *)
  best_mii : int;
  best_copies : int;
  complete : bool;      (** space exhausted — the incumbent is optimal *)
  cancelled : bool;     (** [cancel] fired (implies [not complete]) *)
  stats : stats;
}

val run :
  ?budget:int ->
  ?cancel:(unit -> bool) ->
  machine:Mach.Machine.t ->
  space:Space.t ->
  static_lower:int ->
  seeds:int array list ->
  unit ->
  outcome
(** [budget] (default 300000) caps nodes; on exhaustion the outcome is
    the incumbent with [complete = false]. [seeds] are warm-start
    assignments (bank vectors in space order), evaluated exactly before
    the search — callers pass at least the all-zero assignment, so
    [best] is always a valid incumbent. [static_lower] must be
    {!Bounds.static_lower} of the loop's original DDG. *)
