(** The paper's greedy RCG partitioner (Section 5, Figure 4).

    RCG nodes are placed in decreasing node-weight order. For each node,
    every bank's benefit is the sum of edge weights to neighbours already
    in that bank, minus a balance penalty proportional to the bank's
    current population; the node goes to the best bank.

    Two documented deviations from the (buggy-as-printed) Figure 4
    pseudo-code: we select the maximum benefit even when all benefits are
    negative (the printed [BestBenefit = 0] initialization would dump
    every isolated node in bank 0, defeating the stated goal of spreading
    registers evenly), and the balance penalty is scaled by the mean
    positive edge weight so it is commensurate with benefits (the printed
    penalty expression is OCR-garbled). Ties go to the lowest bank
    index. Pinned nodes go to their pinned bank unconditionally. *)

val partition :
  ?obs:Obs.Trace.t ->
  ?weights:Rcg.Weights.t ->
  banks:int ->
  Rcg.Graph.t ->
  Assign.t
(** [weights] supplies the balance knob (default {!Rcg.Weights.default}).
    Raises [Invalid_argument] when [banks < 1] or a pin is out of
    range. [obs] traces one [greedy.partition] span and the
    [greedy.decisions] / [greedy.tie_breaks] / [greedy.pinned]
    counters (a tie-break is a placement where two or more banks shared
    the best benefit; the lowest index wins). *)
