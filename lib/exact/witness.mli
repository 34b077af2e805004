(** Turning a winning bank assignment into checkable artifacts.

    The solver's incumbent is just a bank vector and a score. A witness
    is the full evidence an optimality claim rests on: the rewritten
    body with copies, its DDG, and an actual clustered kernel — built
    through exactly the production path ({!Partition.Copies.insert_loop},
    {!Partition.Driver.rebuild}, {!Sched.Modulo.schedule} from the
    clustered MinII), so
    the claim is about schedules the framework really produces. *)

type t = {
  assignment : Partition.Assign.t;  (** including copy destinations *)
  rewritten : Ir.Loop.t;
  ddg : Ddg.Graph.t;                (** of the rewritten body *)
  kernel : Sched.Kernel.t;
  ii : int;                         (** achieved by [kernel] *)
  mii : int;                        (** clustered MinII scheduling started from *)
  copies : int;
}

val realize :
  machine:Mach.Machine.t ->
  loop:Ir.Loop.t ->
  Partition.Assign.t ->
  (t, string) result
(** [Error] when the assignment is malformed for the loop or the Rau
    scheduler finds no feasible II (it searches upward from MinII, so
    [ii >= mii] on success — equality is what optimality claims need). *)

val check : machine:Mach.Machine.t -> loop:Ir.Loop.t -> lower:int -> optimal:bool -> t -> Verify.Diag.t list
(** Independent validation via {!Verify.Exact_check}: the witness
    artifacts against the EX001–EX006 taxonomy, with [loop] as the
    original body and [ii]/[copies] as the claimed values. *)
