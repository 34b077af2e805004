(** Deterministic fault injection for the resilient driver.

    Each fault perturbs one stage artifact through the {!Driver.hooks}
    seam, seeded by {!Util.Prng} so a (seed, trial) pair replays
    identically. Faults are {e fire-once}: a fault corrupts the first
    artifact it applies to and then disarms, so transient faults model a
    single bad stage output — the ladder's next rung sees clean
    artifacts and recovers. Persistent faults (a shrunken register file,
    malformed source IR) corrupt what the driver is given before the
    ladder starts, so recovery means a clean structured failure or a
    rung that genuinely tolerates the condition (spilling, surrender).

    Fault → expected diagnostic:
    - {!Corrupt_kernel} drops one kernel placement → SCH001 (unscheduled
      op) from {!Verify.Sched_check};
    - {!Drop_copy} deletes an inter-bank copy and wires its consumers to
      the copied source → PT003 (cross-bank operand) from
      {!Verify.Partition_check};
    - {!Scramble_assignment} moves one register to another bank after
      copy insertion → PT003 / AL005;
    - {!Shrink_banks} rebuilds the machine with tiny register banks →
      spill-and-reschedule, or a structured Allocation failure
      (AL-coded) when the pressure is irreducible;
    - {!Malform_ir} adds a phantom live-out register → IR004 from the
      driver's input gate. *)

type fault =
  | Corrupt_kernel        (** drop a placement from the clustered kernel *)
  | Drop_copy             (** delete a copy op, rewire consumers to its source *)
  | Scramble_assignment   (** move one register's bank after copy insertion *)
  | Shrink_banks of int   (** rebuild the machine with [n] registers per bank *)
  | Malform_ir            (** add an undefined register to the loop's live-out *)

val fault_name : fault -> string

val recoverable : fault list
(** Transient stage corruptions the ladder must recover from:
    [Corrupt_kernel; Drop_copy; Scramble_assignment]. *)

val fatal : fault list
(** Input corruptions the driver must fail cleanly on (structured error,
    right code, no exception): [Malform_ir; Shrink_banks 1]. *)

val all : fault list

type service_fault =
  | Garbage_frame   (** send bytes that are not a protocol frame *)
  | Slow_loris      (** dribble a valid frame a few bytes at a time *)
  | Disconnect      (** close the connection before reading the reply *)
  | Deadline_storm  (** request an impossible deadline, then retry sanely *)
  | Crash_worker    (** poison request that kills its worker domain *)
(** Faults delivered against a running [rbp serve] rather than through
    the driver hooks. The daemon must answer every one with a structured
    reply (or survive the disconnect): [Garbage_frame] → a [bad_frame]
    reply, [Slow_loris] → either the completed frame's reply or a read
    timeout, [Disconnect] → a dropped reply counted on
    [serve.disconnects], [Deadline_storm] → a [timeout] reply carrying
    {!Partition.Driver.deadline_code}, [Crash_worker] → a restarted worker domain
    and (after retries) a quarantine reply. The behaviors live in the
    bombardment harness; this catalog exists so serve, bombard and the
    CLI share one spelling of each fault. *)

val service_fault_name : service_fault -> string
val service_fault_of_name : string -> service_fault option

val all_service : service_fault list

type armed = {
  hooks : Driver.hooks;
  fired : unit -> fault list;
      (** the faults that actually found an artifact to corrupt, in
          firing order — a planned fault may not fire (e.g. [Drop_copy]
          on a loop that needed no copies) *)
}

val arm : prng:Util.Prng.t -> fault list -> armed
(** Arm every fault in the plan over one fresh set of hooks. Randomness
    (which placement, which copy, which register, how far to bump) draws
    from [prng] at fire time. *)
