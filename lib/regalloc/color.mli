(** Chaitin/Briggs graph colouring.

    Simplify: repeatedly remove a node of degree < k (it is trivially
    colourable). When only high-degree nodes remain, Briggs's optimistic
    twist pushes the cheapest-to-spill node anyway instead of committing
    to a spill immediately — at select time it often still finds a colour.
    Select: pop the stack, give each node the lowest colour unused by its
    already-coloured neighbours; nodes with no free colour become actual
    spills.

    Spill cost is Chaitin's occurrences/degree (cheap, frequently-used
    registers are kept); {!Alloc} colours with this default.

    The order is fixed: simplify removes the first node in
    [Ir.Vreg.compare] order whose degree among the nodes not yet
    removed is below k, else pushes the first strictly cheapest node
    (cost over its static degree); select pops the stack and takes the
    lowest free colour. The graph's nodes are dense ({!Interference}),
    so simplify keeps a live-degree counter per node, decremented for
    each neighbour of a removed node, and resumes its scan at the
    earliest node that could have dropped below k. *)

type result = {
  colors : int Ir.Vreg.Map.t;  (** colour in [0, k) for every non-spilled node *)
  spilled : Ir.Vreg.t list;    (** actual spills, in spill order *)
}

val color :
  ?cost:(Ir.Vreg.t -> float) ->
  ?precolored:int Ir.Vreg.Map.t ->
  k:int ->
  Interference.t ->
  result
(** [cost] overrides the spill metric (default occurrences/degree).
    [precolored] nodes keep their colour and are never spilled (their
    colours must be < k). Raises [Invalid_argument] when [k < 1] or a
    precolour is out of range. *)

val check : Interference.t -> int Ir.Vreg.Map.t -> (unit, string) Stdlib.result
(** Verify no two interfering registers share a colour. *)
