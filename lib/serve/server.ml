type config = {
  addr : Wire.addr;
  workers : int;
  queue_limit : int;
  default_deadline_ms : float option;
  max_retries : int;
  cache : Engine.Cache.t option;
  idle_timeout_s : float;
  max_frame : int;
  faults_enabled : bool;
  allow_shutdown : bool;
  clock : unit -> float;
  logger : Obs.Log.t;
  trace_seed : int;
  flight_capacity : int;
  flight_anomaly_capacity : int;
  span_cap : int;
  flight_out : string option;
}

let config ?(workers = 2) ?(queue_limit = 64) ?default_deadline_ms ?(max_retries = 2)
    ?cache ?(idle_timeout_s = 30.0) ?(max_frame = 1 lsl 20) ?(faults_enabled = false)
    ?(allow_shutdown = false) ?(clock = Unix.gettimeofday) ?logger ?trace_seed
    ?(flight_capacity = Flight.default_capacity)
    ?(flight_anomaly_capacity = Flight.default_anomaly_capacity)
    ?(span_cap = Flight.default_span_cap) ?flight_out addr =
  let logger =
    match logger with
    | Some l -> l
    | None -> Obs.Log.make ~clock ~sink:prerr_endline ()
  in
  let trace_seed =
    match trace_seed with
    | Some s -> s
    | None -> int_of_float (clock () *. 1e6)
  in
  {
    addr; workers; queue_limit; default_deadline_ms; max_retries; cache;
    idle_timeout_s; max_frame; faults_enabled; allow_shutdown; clock; logger;
    trace_seed; flight_capacity; flight_anomaly_capacity; span_cap; flight_out;
  }

type t = {
  cfg : config;
  stop : bool Atomic.t;
  stats : Stats.t;
  flight : Flight.t;
  trace_ids : Obs.Trace_id.gen;
  queue : Worker.job Admission.t;
  pool : Worker.t;
  conns : int Atomic.t;
}

let serve_options_salt = "serve/ladder-default"

type prints = { loop_print : string; machine_print : string }

(* The two content fingerprints behind both of a request's keys,
   computed once per request. *)
let prints ~machine loop =
  {
    loop_print = Core.Batch.fingerprint_loop loop;
    machine_print = Core.Batch.fingerprint_machine machine;
  }

let job_key_of_prints p =
  Engine.Key.make
    [
      ("loop", p.loop_print);
      ("machine", p.machine_print);
      ("options", serve_options_salt);
    ]

let job_key ~machine loop = job_key_of_prints (prints ~machine loop)

let quarantine_key p ~fault =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ p.loop_print; p.machine_print; Option.value ~default:"" fault ]))

(* ------------------------------------------------------------------ *)
(* One connection                                                      *)

(* The single recording point of an answered compile request. Every
   [Result] — worker-built or a synchronous failure — passes through
   here once, before it is written: stamp the trace id, fold the
   request trace's counters into the stats table, build the capped span
   tree (riding in the reply only when the client asked; the flight
   recorder keeps it either way), record the flight entry, and note the
   result. So a [stats] or [flight] query sent after a reply arrives
   always sees that request. Returns the reply to write. *)
let record_result srv ~trace_id ~want_trace trace (r : Proto.result_reply) =
  let tree =
    Option.map (Obs.Export.trace_json ~span_cap:(Flight.span_cap srv.flight)) trace
  in
  Option.iter (Stats.absorb srv.stats) trace;
  let r =
    { r with Proto.trace_id = Some trace_id; trace = (if want_trace then tree else None) }
  in
  Flight.record srv.flight (Flight.of_result ?trace:tree ~ts:(srv.cfg.clock ()) r);
  Stats.note_result srv.stats r;
  Proto.Result r

(* One accepted connection. The fd must outlive the reader thread: a
   worker domain delivers compile replies asynchronously, and closing
   the fd while a job is in flight would let the OS reuse the number
   for the next accepted connection — the late reply would then land in
   some other client's stream. So the fd is reference-counted: it
   closes only once the reader is done AND no admitted job still owes
   this connection a reply. Writes stop as soon as the peer is known
   gone (EOF or a write error), so a disconnected client's replies are
   counted as disconnects, never sprayed at a recycled descriptor. *)
type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable pending : int;      (* admitted jobs yet to deliver here *)
  mutable reader_done : bool; (* no further requests will be read *)
  mutable peer_gone : bool;   (* EOF / write failure: stop writing *)
  mutable fd_closed : bool;
}

let conn_make fd =
  {
    fd;
    lock = Mutex.create ();
    pending = 0;
    reader_done = false;
    peer_gone = false;
    fd_closed = false;
  }

(* With [c.lock] held. *)
let conn_close_if_done c =
  if c.reader_done && c.pending = 0 && not c.fd_closed then begin
    c.fd_closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let conn_send srv c reply =
  Mutex.lock c.lock;
  let r =
    if c.peer_gone || c.fd_closed then Error "peer gone"
    else Wire.write_line c.fd (Proto.reply_to_string reply)
  in
  (match r with
  | Ok () -> ()
  | Error _ ->
      c.peer_gone <- true;
      Stats.bump srv.stats Obs.Counter.Serve_disconnects 1);
  Mutex.unlock c.lock

let conn_job_done srv c reply =
  conn_send srv c reply;
  Mutex.lock c.lock;
  c.pending <- c.pending - 1;
  conn_close_if_done c;
  Mutex.unlock c.lock

let conn_reader_done ?(peer_gone = false) c =
  Mutex.lock c.lock;
  c.reader_done <- true;
  if peer_gone then c.peer_gone <- true;
  conn_close_if_done c;
  Mutex.unlock c.lock

let handle_compile srv ~conn ~send (c : Proto.compile) =
  let received = srv.cfg.clock () in
  (* The request's trace identity: the client's correlator when it is
     well-formed, a server-generated one otherwise — either way every
     reply, log line and flight entry about this request carries it. *)
  let trace_id =
    match c.Proto.trace_id with
    | Some t when Obs.Trace_id.is_valid t -> t
    | _ -> Obs.Trace_id.next srv.trace_ids
  in
  Obs.Log.debug srv.cfg.logger ~trace_id
    ~fields:[ ("id", Obs.Json.Str c.Proto.id) ]
    "compile received";
  let record = record_result srv ~trace_id ~want_trace:c.Proto.trace in
  let deliver trace r =
    let reply = record trace r in
    Obs.Log.debug srv.cfg.logger ~trace_id
      ~fields:
        [
          ("id", Obs.Json.Str c.Proto.id);
          ("status", Obs.Json.Str (Proto.status_of_reply reply));
          ("total_ms", Obs.Json.Num r.Proto.timing.Proto.total_ms);
        ]
      "compile done";
    conn_job_done srv conn reply
  in
  let structured_failure err =
    (* Synchronous reply from the connection thread itself: no pending
       slot was taken, and no worker ran. *)
    let reply =
      record None
        (Proto.error_reply
           ~timing:
             {
               Proto.zero_timing with
               Proto.total_ms = 1000.0 *. (srv.cfg.clock () -. received);
             }
           ~id:c.Proto.id err)
    in
    Obs.Log.debug srv.cfg.logger ~trace_id
      ~fields:
        [
          ("id", Obs.Json.Str c.Proto.id);
          ("code", Obs.Json.Str err.Verify.Stage_error.code);
        ]
      "compile rejected";
    send reply
  in
  match Ir.Parse.loop_of_string c.Proto.ir with
  | Error e ->
      structured_failure
        (Verify.Stage_error.make ~stage:Verify.Stage_error.Ir_input ~subject:c.Proto.id
           (Printf.sprintf "IR parse error: %s" e))
  | Ok loop -> (
      match
        try Ok (Mach.Machine.paper_clustered ~clusters:c.Proto.clusters ~copy_model:c.Proto.model)
        with Invalid_argument m -> Error m
      with
      | Error m ->
          structured_failure
            (Verify.Stage_error.make ~code:Proto.code_bad_machine
               ~stage:Verify.Stage_error.Ir_input ~subject:c.Proto.id
               (Printf.sprintf "machine rejected: %s" m))
      | Ok machine -> (
          let prints = prints ~machine loop in
          let qkey = quarantine_key prints ~fault:c.Proto.fault in
          match Worker.quarantined srv.pool qkey with
          | Some crashes ->
              structured_failure (Proto.quarantine_error ~id:c.Proto.id ~crashes)
          | None -> (
              let deadline_ms =
                match c.Proto.deadline_ms with
                | Some _ as d -> d
                | None -> srv.cfg.default_deadline_ms
              in
              let token =
                Engine.Cancel.make
                  ?deadline:(Option.map (fun ms -> received +. (ms /. 1000.0)) deadline_ms)
                  ~clock:srv.cfg.clock ()
              in
              let key =
                if c.Proto.no_cache || srv.cfg.cache = None then None
                else Some (job_key_of_prints prints)
              in
              let job =
                {
                  Worker.id = c.Proto.id;
                  qkey;
                  loop;
                  machine;
                  key;
                  token;
                  submitted = received;
                  fault = c.Proto.fault;
                  attempt = 0;
                  deliver;
                }
              in
              (* Reserve the reply slot before pushing: a worker may pop
                 and deliver before try_push even returns. *)
              Mutex.lock conn.lock;
              conn.pending <- conn.pending + 1;
              Mutex.unlock conn.lock;
              let not_admitted () =
                Mutex.lock conn.lock;
                conn.pending <- conn.pending - 1;
                conn_close_if_done conn;
                Mutex.unlock conn.lock
              in
              match Admission.try_push srv.queue job with
              | `Admitted _ -> Stats.note_admitted srv.stats
              | `Shed retry_after_ms ->
                  not_admitted ();
                  Stats.note_shed srv.stats;
                  (* Sheds are anomalies even though no request ring
                     entry exists: the anomaly ring is how a post-mortem
                     finds them after the burst has passed. *)
                  Flight.record srv.flight
                    (Flight.shed ~trace_id ~id:c.Proto.id ~ts:(srv.cfg.clock ()));
                  Obs.Log.debug srv.cfg.logger ~trace_id
                    ~fields:[ ("id", Obs.Json.Str c.Proto.id) ]
                    "compile shed: queue full";
                  send
                    (Proto.Overload
                       {
                         id = c.Proto.id;
                         depth = Admission.depth srv.queue;
                         retry_after_ms;
                       })
              | `Closed ->
                  not_admitted ();
                  structured_failure (Proto.shutdown_error ~id:c.Proto.id))))

let handle_conn srv conn =
  let rd = Wire.reader conn.fd in
  let send reply = conn_send srv conn reply in
  let bad_frame detail =
    Stats.bump srv.stats Obs.Counter.Serve_bad_frames 1;
    Obs.Log.debug srv.cfg.logger
      ~fields:[ ("detail", Obs.Json.Str detail) ]
      "bad frame";
    send (Proto.Bad_frame { detail })
  in
  let rec loop () =
    match
      Wire.read_line ~slice_s:0.25 ~idle_timeout_s:srv.cfg.idle_timeout_s
        ~max_frame:srv.cfg.max_frame
        ~should_stop:(fun () -> Atomic.get srv.stop)
        rd
    with
    | `Eof | `Error _ ->
        (* The peer is gone: late replies would hit a recycled fd. *)
        conn_reader_done ~peer_gone:true conn
    | `Stopped | `Idle ->
        (* Stop reading, but let in-flight replies still flush. *)
        conn_reader_done conn
    | `Too_long ->
        (* The connection's framing is gone — reply once and hang up. *)
        bad_frame "frame exceeds the maximum size";
        conn_reader_done conn
    | `Line "" -> loop ()
    | `Line line -> (
        match Proto.request_of_string line with
        | Error detail ->
            bad_frame detail;
            loop ()
        | Ok Proto.Ping ->
            send Proto.Pong;
            loop ()
        | Ok Proto.Stats ->
            send (Proto.Stats_reply (Stats.snapshot srv.stats));
            loop ()
        | Ok Proto.Metrics ->
            send (Proto.Metrics_reply (Stats.metrics_json srv.stats));
            loop ()
        | Ok (Proto.Flight { id; anomalies }) ->
            send
              (Proto.Flight_reply
                 (Flight.to_json ?id ~anomalies_only:anomalies srv.flight));
            loop ()
        | Ok Proto.Shutdown ->
            if srv.cfg.allow_shutdown then begin
              send Proto.Bye;
              Atomic.set srv.stop true;
              conn_reader_done conn
            end
            else begin
              bad_frame "shutdown is not enabled on this daemon";
              loop ()
            end
        | Ok (Proto.Compile c) ->
            handle_compile srv ~conn ~send c;
            loop ())
  in
  Fun.protect ~finally:(fun () -> conn_reader_done conn) loop

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let listen_socket addr =
  let fd = Unix.socket (Wire.domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Wire.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
     | Wire.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd (Wire.sockaddr_of addr);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let install_signals stop =
  (* A worker writing into a dead client must see EPIPE, not die. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  List.iter
    (fun s -> try Sys.set_signal s handler with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ]

(* The SIGTERM drain's last act: the flight recorder's final dump, so a
   crashed-and-drained daemon still leaves its forensics behind. *)
let write_flight_dump cfg flight =
  match cfg.flight_out with
  | None -> ()
  | Some path -> (
      match
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Obs.Json.to_string (Flight.to_json flight));
            output_char oc '\n')
      with
      | () -> Obs.Log.info cfg.logger (Printf.sprintf "rbp serve: flight dump written to %s" path)
      | exception Sys_error e ->
          Obs.Log.error cfg.logger
            (Printf.sprintf "rbp serve: cannot write flight dump: %s" e))

let run cfg =
  let stop = Atomic.make false in
  install_signals stop;
  let stats = Stats.make ~clock:cfg.clock () in
  let flight =
    Flight.make ~capacity:cfg.flight_capacity
      ~anomaly_capacity:cfg.flight_anomaly_capacity ~span_cap:cfg.span_cap
      ~clock:cfg.clock ()
  in
  let trace_ids = Obs.Trace_id.gen ~seed:cfg.trace_seed in
  let queue = Admission.create ~limit:cfg.queue_limit () in
  let pool =
    Worker.create ~queue ~stats ~cache:cfg.cache ~clock:cfg.clock
      ~faults_enabled:cfg.faults_enabled ~max_retries:cfg.max_retries
      ~workers:cfg.workers ()
  in
  let srv = { cfg; stop; stats; flight; trace_ids; queue; pool; conns = Atomic.make 0 } in
  let log_info m = Obs.Log.info cfg.logger m in
  match listen_socket cfg.addr with
  | exception e ->
      Obs.Log.error cfg.logger
        (Printf.sprintf "rbp serve: cannot listen on %s: %s" (Wire.addr_to_string cfg.addr)
           (Printexc.to_string e));
      Worker.stop pool;
      1
  | lfd ->
      log_info
        (Printf.sprintf "rbp serve: listening on %s (%d workers, queue limit %d%s)"
           (Wire.addr_to_string cfg.addr) (max 1 cfg.workers) cfg.queue_limit
           (if cfg.faults_enabled then ", fault injection ON" else ""));
      let rec accept_loop () =
        if Atomic.get stop then ()
        else begin
          (match Unix.select [ lfd ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept lfd with
              | exception Unix.Unix_error _ -> ()
              | cfd, _ ->
                  Atomic.incr srv.conns;
                  let conn = conn_make cfd in
                  ignore
                    (Thread.create
                       (fun () ->
                         (* The fd is NOT closed here: conn_close_if_done
                            does it once every admitted job has answered. *)
                         Fun.protect
                           ~finally:(fun () -> Atomic.decr srv.conns)
                           (fun () -> try handle_conn srv conn with _ -> ()))
                       ()))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      log_info "rbp serve: draining";
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (match cfg.addr with
      | Wire.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | Wire.Tcp _ -> ());
      (* Answer everything admitted, then retire the pool. *)
      Worker.stop pool;
      (* Give connection threads (already unblocked by the stop flag in
         their read slices) a moment to flush and exit. *)
      let rec wait_conns budget =
        if Atomic.get srv.conns > 0 && budget > 0.0 then begin
          Thread.delay 0.05;
          wait_conns (budget -. 0.05)
        end
      in
      wait_conns 5.0;
      write_flight_dump cfg flight;
      log_info
        (Printf.sprintf "rbp serve: done (%s)"
           (String.concat ", "
              (List.map
                 (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                 (Stats.snapshot stats))));
      0
