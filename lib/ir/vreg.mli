(** Virtual (symbolic) registers.

    The compiler front end generates code against an infinite register file;
    every value is a [Vreg.t]. Partitioning assigns each virtual register to
    a register bank, and Chaitin/Briggs later maps it to an architectural
    register within that bank. Identity is the integer [id]; the class and
    optional name ride along for latency lookup and printing. *)

type t = private {
  id : int;
  cls : Mach.Rclass.t;
  name : string option;  (** human-readable label, e.g. ["r5"] or ["xvel"] *)
}

val make : ?name:string -> id:int -> cls:Mach.Rclass.t -> unit -> t
(** Raises [Invalid_argument] on negative [id]. *)

val id : t -> int
val cls : t -> Mach.Rclass.t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

(** A dense numbering of a finite set of registers: [0 .. size-1] in
    [compare] order. The liveness analyses and the register allocator
    number a body's registers once and then work on bit rows and arrays
    indexed by number. *)
module Dense : sig
  type reg := t
  type t

  val of_iter : ((reg -> unit) -> unit) -> t
  (** [of_iter iter] numbers every register [iter] yields (duplicates
      are fine). [iter] is called twice. Of several records with one id,
      the first yielded is the one {!reg} returns. *)

  val size : t -> int
  val reg : t -> int -> reg
  (** The register numbered [k]. *)

  val find : t -> reg -> int
  (** The number of a register, or [-1] when it was not numbered. *)
end
