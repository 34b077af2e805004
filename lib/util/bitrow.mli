(** Bit rows: fixed-width sets of small non-negative integers.

    A row holds the members of [0, n) for the [n] it was made with, one
    bit each, packed into the words of an [int array]. The liveness
    analyses and the register allocator number a body's registers
    densely and keep one row per program point (or per interference
    node), so union, difference and membership are word operations.
    Rows made with the same [n] have the same length and may be combined
    word by word; iteration is in ascending order. *)

type t = int array

val create : int -> t
(** [create n]: the empty row over [0, n). *)

val words : int -> int
(** The length of a row over [0, n). *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** The members, ascending. *)

val popcount : int -> int
(** Set bits of one word. *)

val iter_word : (int -> unit) -> int -> int -> unit
(** [iter_word f base w] calls [f (base + j)] for each set bit [j] of the
    word [w], ascending. *)

val bits : int
(** Bits per word: member [i] is bit [i mod bits] of word [i / bits]. *)
