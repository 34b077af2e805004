(** The compile pool: worker domains, a supervisor, and a quarantine.

    Connection threads push {!job}s through the {!Admission} queue;
    each worker domain pops, compiles through the {!Robust.Driver}
    ladder (answering repeats from the {!Engine.Cache}), and calls the
    job's [deliver] exactly once with a structured reply and, when it
    compiled or probed the cache, the request's trace. The worker
    records nothing about the answer itself: [deliver] is the server's
    single recording point (stats, flight recorder, trace id, span
    tree), run before the reply is written. Three layers
    of isolation keep one request from hurting another:

    - {e per-job}: an unexpected exception becomes that request's
      [PIPE001] error reply — the domain keeps serving;
    - {e per-deadline}: the job's {!Engine.Cancel} token is polled
      before work starts (expired-in-queue requests are answered
      without compiling) and threaded into the ladder, which abandons
      the run at the next stage boundary with {!Partition.Driver.deadline_code};
    - {e per-domain}: a worker domain that dies outright (the simulated
      {!Crash}) is detected by the supervisor thread, which joins the
      corpse, restarts the slot ([serve.worker_restarts]), and either
      requeues the in-flight job or — after [max_retries] crashes —
      quarantines it ([SRV003], [serve.quarantined]) so a poison
      request cannot crash-loop the pool forever. *)

exception Crash of string
(** Simulated worker death; raised (only when the daemon enables fault
    injection) for jobs carrying the ["crash-worker"] poison marker. *)

type job = {
  id : string;
  qkey : string;  (** quarantine key: digest of (loop, machine, fault) *)
  loop : Ir.Loop.t;
  machine : Mach.Machine.t;
  key : string option;  (** cache key; [None] bypasses the cache *)
  token : Engine.Cancel.t;
  submitted : float;  (** clock reading at admission, for [queue_ms] *)
  fault : string option;
  attempt : int;  (** prior worker crashes of this job *)
  deliver : Obs.Trace.t option -> Proto.result_reply -> unit;
      (** called exactly once, with the request's trace when the worker
          ran one ([None] for answers given without compiling: queue
          expiry, quarantine, a per-job exception, shutdown) *)
}

type t

val create :
  queue:job Admission.t ->
  stats:Stats.t ->
  cache:Engine.Cache.t option ->
  clock:(unit -> float) ->
  faults_enabled:bool ->
  max_retries:int ->
  workers:int ->
  unit ->
  t
(** Spawn [workers] domains (min 1) and the supervisor thread. *)

val quarantined : t -> string -> int option
(** Admission-time check: the crash count a quarantined key was
    convicted with, or [None] when the key is clean. *)

val idle : t -> bool
(** No queued jobs, no in-flight jobs, no corpse awaiting restart. *)

val stop : t -> unit
(** Graceful drain: close the queue, let the workers answer everything
    already admitted (crashes included — the supervisor keeps
    restarting domains throughout the drain), then join every domain
    and the supervisor. *)

val metrics_of_result : Robust.Driver.result -> Core.Metrics.loop_metrics
(** Paper metrics from a ladder result. Pipelined kernels report the
    true [ii / ideal_ii] degradation; flat (surrendered) code reports
    its list schedule's own IPC with a neutral degradation of 100 —
    the reply's [flat_cycles] field is the honest "not pipelined"
    signal. *)
