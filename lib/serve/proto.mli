(** The wire protocol: newline-delimited JSON, one frame per line.

    Requests are objects with an ["op"] discriminator ([compile], [ping],
    [stats], [metrics], [flight], [shutdown]); replies carry a ["status"]
    discriminator ([ok], [error], [timeout], [overload], [bad_frame],
    [pong], [stats], [metrics], [flight], [bye]).
    Compile outcomes ride in the same serialization {!Core.Batch.codec}
    uses for the result cache, so a service reply and a cached batch
    outcome are the same JSON — one codec, one set of round-trip tests.

    Every compile reply carries full provenance: the ladder rung that
    produced the code, the rendered attempt trace of every rung that
    failed first, cache status, and queue/compile/total latency. The
    daemon never answers a compile request with anything but a [Result]
    frame, an [Overload] frame, or a [Bad_frame] frame — protocol
    errors are structured, not dropped connections. *)

val protocol : string
(** ["rbp-serve/1"], echoed in [pong] replies. *)

val code_bad_frame : string
(** ["SRV001"] — unparseable or oversized frame. *)

val code_bad_machine : string
(** ["SRV002"] — machine description rejected. *)

val code_quarantined : string
(** ["SRV003"] — poison request quarantined. *)

val code_shutting_down : string
(** ["SRV004"] — request refused during drain. *)

type compile = {
  id : string;           (** client-chosen correlation id, echoed in the reply *)
  ir : string;           (** textual IR (see {!Ir.Parse}) *)
  clusters : int;
  model : Mach.Machine.copy_model;
  deadline_ms : float option;  (** per-request wall-clock budget *)
  no_cache : bool;             (** bypass the result cache both ways *)
  fault : string option;
      (** opaque poison marker ({!Robust.Inject.service_fault_name});
          honored only when the daemon runs with faults enabled *)
  trace_id : string option;
      (** client-supplied trace correlator; the daemon echoes it (when
          {!Obs.Trace_id.is_valid}) or substitutes a generated one *)
  trace : bool;
      (** ask for the request's span tree in the reply, truncated at
          the daemon's span cap *)
}

type request =
  | Compile of compile
  | Ping
  | Stats
  | Metrics
  | Flight of { id : string option; anomalies : bool }
      (** dump the flight recorder: everything, one trace id, or the
          anomaly ring only *)
  | Shutdown

type cache_status = Hit | Miss | Bypass

val cache_status_name : cache_status -> string
val cache_status_of_name : string -> cache_status option

type timing = { queue_ms : float; compile_ms : float; total_ms : float }

val zero_timing : timing

type result_reply = {
  id : string;
  trace_id : string option;       (** the request's trace identity, always
                                      present on daemon-built replies *)
  outcome : Core.Batch.outcome;   (** metrics on success, stage error otherwise *)
  rung : string option;           (** ladder rung that produced the code *)
  pipelined : bool;               (** false for flat (non-pipelined) code *)
  flat_cycles : int option;       (** schedule length when not pipelined *)
  cache : cache_status;
  spills : int;
  attempts : string list;         (** rendered attempt trace, oldest first *)
  timing : timing;
  trace : Obs.Json.t option;
      (** the {!Obs.Export.trace_json} span tree, present only when the
          request asked for it — absent, the frame is byte-identical to
          the pre-tracing encoding *)
}

type reply =
  | Result of result_reply
  | Overload of { id : string; depth : int; retry_after_ms : float }
  | Bad_frame of { detail : string }
  | Pong
  | Stats_reply of (string * int) list
  | Metrics_reply of Obs.Json.t
      (** the [rbp-metrics/1] document {!Stats.metrics_json} builds,
          carried opaquely so the codec needs no metrics schema *)
  | Flight_reply of Obs.Json.t
      (** the [rbp-flight/1] document {!Flight.to_json} builds, carried
          opaquely like the metrics document *)
  | Bye

val status_of_reply : reply -> string
(** The ["status"] value the encoding carries; [Result] replies are
    ["ok"], ["timeout"] (code {!Partition.Driver.deadline_code}) or
    ["error"]. *)

val model_name : Mach.Machine.copy_model -> string
val model_of_name : string -> Mach.Machine.copy_model option

val request_to_json : request -> Obs.Json.t
val request_to_string : request -> string
val request_of_string : string -> (request, string) result

val reply_to_json : reply -> Obs.Json.t
val reply_to_string : reply -> string
val reply_of_string : string -> (reply, string) result

(** {2 Structured-failure constructors} *)

val queue_timeout_error : id:string -> Verify.Stage_error.t
(** [PIPE008] — the request's deadline fired before a worker picked it
    up. *)

val quarantine_error : id:string -> crashes:int -> Verify.Stage_error.t
(** [SRV003]. *)

val shutdown_error : id:string -> Verify.Stage_error.t
(** [SRV004]. *)

val error_reply :
  ?cache:cache_status ->
  ?timing:timing ->
  ?trace_id:string ->
  id:string ->
  Verify.Stage_error.t ->
  reply
(** A [Result] reply wrapping a structured failure; the attempt trace is
    rendered from the error's own attempts. *)
