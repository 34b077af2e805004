(** Reservation tables.

    Track which machine resources are held at which cycle, both for flat
    schedules (unbounded horizon) and for modulo schedules (all cycles are
    taken mod II — one kernel row per modulo slot, the classic MRT).

    Resources follow the machine model: per-cluster functional-unit issue
    slots — typed by {!Mach.Machine.fu_class} on machines with a
    specialized unit mix, where an operation may issue on a matching
    specialized unit or on a [General] one (specialized units are
    preferred so General slots stay free); and, for the copy-unit model,
    per-cluster copy ports plus global busses. Reservations remember the
    holding op so the modulo scheduler can evict conflicting ops when it
    force-places.

    Representation: resource classes are numbered densely — [4c + k]
    for cluster [c]'s unit class [k] (General, Integer, Float, Memory),
    [4C + c] for cluster [c]'s copy ports, [5C] for the busses, on a
    machine of [C] clusters — and each table row (one cycle, or one
    modulo slot) holds one holder count and one most-recent-first holder
    list per class in flat arrays, next to a per-class capacity array.
    Each op maps to the slots it holds. Rows are allocated on demand,
    doubling as needed: flat tables have no horizon, and a modulo table
    starts at [min ii 64] rows and never exceeds [ii], so a table for a
    huge II grows only as far as the highest row reserved. A query on a row
    never reserved answers as for an empty row.

    Holders ([~op]) are small non-negative ints: the schedulers pass
    DDG nodes (op id ranks, {!Ddg.Graph}), never op ids, since the
    per-holder table grows to the largest holder + 1. Requests must name
    a cluster of the machine: [reserve] of a negative holder and any
    query naming an out-of-range cluster raise [Invalid_argument]. *)

type t

type request =
  | Fu of int
      (** one [General] FU issue slot in the given cluster (the paper's
          all-general machines) *)
  | Fu_typed of int * Mach.Machine.fu_class list
      (** a slot on any listed specialized class, or on [General] *)
  | Copy_to of int
      (** a copy arriving at the given cluster: one copy port there plus
          one global bus (copy-unit model) *)

val create_flat : Mach.Machine.t -> t
val create_modulo : Mach.Machine.t -> ii:int -> t

val ii : t -> int option
(** The modulo period, [None] for flat tables. *)

val fits : t -> cycle:int -> request -> bool
(** Would the request fit at the cycle (mod II for modulo tables)? *)

val reserve : t -> cycle:int -> op:int -> request -> unit
(** Claim resources. Raises [Invalid_argument] if they do not fit. *)

val release_op : t -> op:int -> unit
(** Drop every reservation held by the op (idempotent). *)

val conflicting_ops : t -> cycle:int -> request -> int list
(** Ops whose release makes the request fit at the cycle: if it already
    fits, []. One victim (the most recently placed holder of an
    acceptable resource) per saturated resource. *)

val satisfiable : t -> request -> bool
(** False when every acceptable resource class has zero capacity on this
    machine — the request can never be reserved at any cycle. *)

val request_for :
  Mach.Machine.t -> cluster:int -> Ir.Op.t -> request
(** The resource request of an operation placed on a cluster: [Copy_to
    cluster] for copies under the copy-unit model; otherwise an FU slot,
    typed by {!Mach.Machine.allowed_classes} on specialized machines.
    Raises [Invalid_argument] on an out-of-range cluster. *)
