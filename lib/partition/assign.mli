(** Register-to-bank assignments.

    The output of any partitioner: a total map from the symbolic registers
    of a code region to register banks. Operations derive their cluster
    from their registers — an operation executes where its destination
    lives (the FU writes its own bank), and a store where its value
    source lives. *)

type t = int Ir.Vreg.Map.t

val bank : t -> Ir.Vreg.t -> int
(** Raises [Invalid_argument] naming the register when unassigned — a
    partitioner bug. *)

val bank_opt : t -> Ir.Vreg.t -> int option

val cluster_of_op : t -> Ir.Op.t -> int
(** Destination's bank; for stores/nops the first source's bank; 0 for
    operations touching no registers. *)

val of_list : (Ir.Vreg.t * int) list -> t

val park : Ir.Loop.t -> t -> t
(** [park loop a] puts every register of [loop] that [a] misses in
    bank 0, leaving the others where [a] has them. *)

val single_bank : Ir.Loop.t -> t
(** Every register of the loop in bank 0: the assignment of a monolithic
    machine and of the resilient ladder's merge and surrender rungs. *)

val counts : banks:int -> t -> int array
(** Registers per bank. Raises [Invalid_argument] if an assignment is out
    of range. *)

val all_in_range : banks:int -> t -> bool

val copies_needed : t -> Ir.Op.t list -> int
(** Number of (register, consuming-cluster) pairs that would require an
    inter-bank copy — a cheap static quality metric for partitions,
    before any scheduling. Copy reuse within the region is accounted for
    (each distinct pair counts once). *)

val pp : Format.formatter -> t -> unit
