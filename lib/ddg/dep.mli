(** Dependence edge labels.

    An edge (p, s, label) means: operation [s] in iteration [i] must start
    at least [latency] cycles after operation [p] issued in iteration
    [i - distance]. [distance = 0] is a loop-independent dependence;
    positive distances are loop-carried. Modulo scheduling's legality
    constraint is [t(s) - t(p) >= latency - II * distance]. *)

type kind =
  | Flow    (** true dependence: p defines a register s reads *)
  | Anti    (** s redefines a register p reads *)
  | Output  (** s redefines a register p defines *)
  | Mem of kind_mem  (** ordering between memory operations *)

and kind_mem = Mem_flow | Mem_anti | Mem_output

type t = private { kind : kind; latency : int; distance : int }

val make : kind:kind -> latency:int -> distance:int -> t
(** Raises [Invalid_argument] on negative latency or distance. *)

val kind : t -> kind
val latency : t -> int
val distance : t -> int

val is_loop_carried : t -> bool
val kind_rank : kind -> int
(** Flow 0, Anti 1, Output 2, Mem_flow 3, Mem_anti 4, Mem_output 5: the
    kind as an int, as {!Graph}'s rows store it. *)

val kind_of_rank : int -> kind
(** The inverse of {!kind_rank}. *)

val kind_to_string : kind -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
