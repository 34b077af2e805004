(** The daemon: accept loop, per-connection threads, graceful drain.

    Architecture (DESIGN.md §13): the accept loop hands each connection
    to a thread that parses newline-delimited JSON frames; compile
    requests pass admission control (bounded queue, [overload] replies
    with a [retry_after] quote once the backlog hits the limit) and are
    compiled on worker domains with per-request deadlines, cache
    answers, crash supervision and quarantine (see {!Worker}). SIGTERM
    and SIGINT trigger a graceful drain: stop accepting, answer every
    admitted request, join the pool, exit 0.

    Exit-code contract: 0 — clean shutdown after a drain (signal or a
    [shutdown] frame when enabled); 1 — the listen socket could not be
    opened. The daemon does not exit on any request content: malformed
    frames, poison requests and worker crashes are answered and
    survived. *)

type config = {
  addr : Wire.addr;
  workers : int;                      (** worker domains (min 1) *)
  queue_limit : int;                  (** admission bound; 0 sheds everything *)
  default_deadline_ms : float option; (** applied when a request names none *)
  max_retries : int;                  (** worker crashes before quarantine *)
  cache : Engine.Cache.t option;
  idle_timeout_s : float;             (** per-frame total read budget *)
  max_frame : int;                    (** bytes; larger frames are [bad_frame] *)
  faults_enabled : bool;              (** honor poison markers (tests only) *)
  allow_shutdown : bool;              (** honor the [shutdown] op *)
  clock : unit -> float;
  logger : Obs.Log.t;                 (** lifecycle at [Info], per-request at [Debug] *)
  trace_seed : int;                 (** seeds the server-side trace-id stream *)
  flight_capacity : int;              (** flight-recorder request ring *)
  flight_anomaly_capacity : int;      (** flight-recorder anomaly ring *)
  span_cap : int;                     (** spans retained / returned per trace *)
  flight_out : string option;         (** final flight dump path, written on drain *)
}

val config :
  ?workers:int ->
  ?queue_limit:int ->
  ?default_deadline_ms:float ->
  ?max_retries:int ->
  ?cache:Engine.Cache.t ->
  ?idle_timeout_s:float ->
  ?max_frame:int ->
  ?faults_enabled:bool ->
  ?allow_shutdown:bool ->
  ?clock:(unit -> float) ->
  ?logger:Obs.Log.t ->
  ?trace_seed:int ->
  ?flight_capacity:int ->
  ?flight_anomaly_capacity:int ->
  ?span_cap:int ->
  ?flight_out:string ->
  Wire.addr ->
  config
(** Defaults: 2 workers, queue limit 64, no default deadline, 2 retries
    before quarantine, no cache, 30 s frame budget, 1 MiB frames,
    faults off, shutdown op off, wall clock; a [Text]-format [Info]
    logger on stderr driven by [clock]; a trace seed drawn from the
    clock; {!Flight.default_capacity} / {!Flight.default_anomaly_capacity}
    / {!Flight.default_span_cap} rings; no flight dump. *)

val run : config -> int
(** Blocks until shutdown; returns the process exit code. *)

val job_key : machine:Mach.Machine.t -> Ir.Loop.t -> string
(** The content-addressed cache key serve uses for a request — exposed
    so tests can pre-seed or corrupt exactly the entry a request will
    probe. *)

type prints
(** A request's loop and machine fingerprints ([Core.Batch]), from
    which both of its keys are made. *)

val prints : machine:Mach.Machine.t -> Ir.Loop.t -> prints

val job_key_of_prints : prints -> string
(** [job_key_of_prints (prints ~machine loop) = job_key ~machine loop]. *)

val quarantine_key : prints -> fault:string option -> string
(** The key under which crashes of a request are counted toward its
    quarantine: the loop, the machine and the requested service
    fault. *)
