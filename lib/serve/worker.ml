exception Crash of string
(* The simulated worker death: raised past every per-job handler so the
   domain genuinely terminates, exactly like a segfaulting native
   compiler pass would. Only armed when the daemon runs with faults
   enabled. *)

type job = {
  id : string;
  qkey : string;
  loop : Ir.Loop.t;
  machine : Mach.Machine.t;
  key : string option;
  token : Engine.Cancel.t;
  submitted : float;
  fault : string option;
  attempt : int;
  deliver : Obs.Trace.t option -> Proto.result_reply -> unit;
}

type slot = {
  mutable domain : unit Domain.t option;
  current : job option Atomic.t;
  dead : bool Atomic.t;
}

type t = {
  queue : job Admission.t;
  stats : Stats.t;
  cache : Engine.Cache.t option;
  clock : unit -> float;
  faults_enabled : bool;
  max_retries : int;
  slots : slot array;
  qlock : Mutex.t;
  quarantine : (string, int) Hashtbl.t;
  stopping : bool Atomic.t;
  mutable supervisor : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Metrics over ladder results                                         *)

let metrics_of_result (r : Robust.Driver.result) : Core.Metrics.loop_metrics =
  let fi = float_of_int in
  let name = Ir.Loop.name r.Robust.Driver.loop in
  let n_ops = Ir.Loop.size r.Robust.Driver.loop in
  let n_copies = r.Robust.Driver.n_copies in
  match r.Robust.Driver.code with
  | Robust.Driver.Kernel { kernel; ii; ideal_ii } ->
      {
        Core.Metrics.name;
        ideal_ii;
        clustered_ii = ii;
        degradation = 100.0 *. fi ii /. fi ideal_ii;
        ipc_ideal = fi n_ops /. fi ideal_ii;
        ipc_clustered = Partition.Driver.clustered_ipc ~machine:r.Robust.Driver.machine kernel;
        n_copies;
        n_ops;
      }
  | Robust.Driver.Flat sched ->
      (* Surrendered code has no pipelined II to degrade against; report
         the flat schedule's own throughput and a neutral degradation so
         aggregate means stay defined. [flat_cycles] in the reply is the
         honest signal that this loop was not pipelined. *)
      let len = max 1 (Sched.Schedule.length sched) in
      let ipc = Sched.Schedule.ipc sched in
      {
        Core.Metrics.name;
        ideal_ii = len;
        clustered_ii = len;
        degradation = 100.0;
        ipc_ideal = ipc;
        ipc_clustered = ipc;
        n_copies;
        n_ops;
      }

(* ------------------------------------------------------------------ *)
(* Cache entries: the reply-shaped payload around the batch codec      *)

let encode_entry ~metrics ~rung ~pipelined ~flat_cycles ~spills =
  Obs.Json.Obj
    (List.concat
       [
         [
           ("outcome", Core.Batch.codec.Engine.Run.encode (Ok metrics));
           ("rung", Obs.Json.Str rung);
           ("pipelined", Obs.Json.Bool pipelined);
         ];
         (match flat_cycles with
         | None -> []
         | Some n -> [ ("flat_cycles", Obs.Json.Num (float_of_int n)) ]);
         [ ("spills", Obs.Json.Num (float_of_int spills)) ];
       ])

let decode_entry j =
  let ( let* ) = Option.bind in
  let* outcome = Option.bind (Obs.Json.member "outcome" j) Core.Batch.codec.Engine.Run.decode in
  let* metrics = match outcome with Ok m -> Some m | Error _ -> None in
  let* rung = Option.bind (Obs.Json.member "rung" j) Obs.Json.to_str in
  let pipelined =
    match Obs.Json.member "pipelined" j with Some (Obs.Json.Bool b) -> b | _ -> true
  in
  let flat_cycles = Option.bind (Obs.Json.member "flat_cycles" j) Obs.Json.to_int in
  let spills =
    Option.value ~default:0 (Option.bind (Obs.Json.member "spills" j) Obs.Json.to_int)
  in
  Some (metrics, rung, pipelined, flat_cycles, spills)

(* ------------------------------------------------------------------ *)
(* One job                                                             *)

let compile_job t (job : job) =
  let started = t.clock () in
  let queue_ms = 1000.0 *. (started -. job.submitted) in
  let timing compile_ms =
    { Proto.queue_ms; compile_ms; total_ms = 1000.0 *. (t.clock () -. job.submitted) }
  in
  if Engine.Cancel.cancelled job.token then
    (* Expired while queued: answer without spending a single pipeline
       stage on it — the deadline storm defense. *)
    job.deliver None
      (Proto.error_reply ~cache:Proto.Bypass ~timing:(timing 0.0) ~id:job.id
         (Proto.queue_timeout_error ~id:job.id))
  else begin
    (if t.faults_enabled
       && job.fault = Some (Robust.Inject.service_fault_name Robust.Inject.Crash_worker)
     then raise (Crash job.id));
    (* A private trace on the service clock, handed to [deliver] with
       the reply: the server folds its counters into the stats table and
       its spans into the flight recorder (and into the reply, when the
       client asked). Nothing reads its decision events, so it keeps
       none; their tallies still reach the counters. *)
    let tr = Obs.Trace.make ~events:false ~clock:(fun () -> t.clock ()) () in
    let cached =
      match (t.cache, job.key) with
      | Some c, Some key -> (
          match Engine.Cache.find ~obs:tr c ~key with
          | None -> None
          | Some j -> (
              match decode_entry j with
              | Some e -> Some e
              | None ->
                  Obs.Trace.incr (Some tr) Obs.Counter.Engine_cache_corrupt 1;
                  None))
      | _ -> None
    in
    let miss_status = if job.key = None then Proto.Bypass else Proto.Miss in
    match cached with
    | Some (metrics, rung, pipelined, flat_cycles, spills) ->
        job.deliver (Some tr)
          {
            id = job.id;
            trace_id = None;
            outcome = Ok metrics;
            rung = Some rung;
            pipelined;
            flat_cycles;
            cache = Proto.Hit;
            spills;
            attempts = [];
            timing = timing 0.0;
            trace = None;
          }
    | None -> (
        let t0 = t.clock () in
        let cancel = Engine.Cancel.guard job.token in
        match Robust.Driver.run ~obs:tr ~cancel ~machine:job.machine job.loop with
        | Ok r ->
            let metrics = metrics_of_result r in
            let rung = Robust.Driver.rung_name r.Robust.Driver.rung in
            let pipelined, flat_cycles =
              match r.Robust.Driver.code with
              | Robust.Driver.Kernel _ -> (true, None)
              | Robust.Driver.Flat s -> (false, Some (Sched.Schedule.length s))
            in
            let spills = r.Robust.Driver.spill_count in
            (match (t.cache, job.key) with
            | Some c, Some key ->
                Engine.Cache.store c ~key
                  (encode_entry ~metrics ~rung ~pipelined ~flat_cycles ~spills)
            | _ -> ());
            job.deliver (Some tr)
              {
                id = job.id;
                trace_id = None;
                outcome = Ok metrics;
                rung = Some rung;
                pipelined;
                flat_cycles;
                cache = miss_status;
                spills;
                attempts =
                  List.map Verify.Stage_error.attempt_to_string r.Robust.Driver.attempts;
                timing = timing (1000.0 *. (t.clock () -. t0));
                trace = None;
              }
        | Error e ->
            let e = { e with Verify.Stage_error.subject = job.id } in
            job.deliver (Some tr)
              (Proto.error_reply ~cache:miss_status
                 ~timing:(timing (1000.0 *. (t.clock () -. t0)))
                 ~id:job.id e))
  end

let run_job t job =
  try compile_job t job with
  | Crash _ as e -> raise e
  | e ->
      (* Per-job crash isolation: an unexpected exception in one request
         becomes that request's structured failure, never the domain's. *)
      job.deliver None
        (Proto.error_reply ~id:job.id
           (Verify.Stage_error.make ~code:"PIPE001"
              ~stage:Verify.Stage_error.Verification ~subject:job.id
              (Printf.sprintf "worker exception: %s" (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* The pool and its supervisor                                         *)

let rec worker_loop t slot =
  match Admission.pop t.queue with
  | None -> ()
  | Some job ->
      Atomic.set slot.current (Some job);
      run_job t job;
      Atomic.set slot.current None;
      worker_loop t slot

let spawn t slot =
  slot.domain <-
    Some
      (Domain.spawn (fun () ->
           try worker_loop t slot with _ -> Atomic.set slot.dead true))

let quarantined t qkey =
  Mutex.lock t.qlock;
  let r = Hashtbl.find_opt t.quarantine qkey in
  Mutex.unlock t.qlock;
  r

let handle_dead t slot =
  (match slot.domain with Some d -> Domain.join d | None -> ());
  slot.domain <- None;
  Atomic.set slot.dead false;
  Stats.bump t.stats Obs.Counter.Serve_worker_restarts 1;
  (match Atomic.exchange slot.current None with
  | None -> ()
  | Some job ->
      let crashes = job.attempt + 1 in
      if crashes > t.max_retries then begin
        Mutex.lock t.qlock;
        Hashtbl.replace t.quarantine job.qkey crashes;
        Mutex.unlock t.qlock;
        Stats.bump t.stats Obs.Counter.Serve_quarantined 1;
        let total_ms = 1000.0 *. (t.clock () -. job.submitted) in
        job.deliver None
          (Proto.error_reply
             ~timing:{ Proto.zero_timing with Proto.total_ms }
             ~id:job.id
             (Proto.quarantine_error ~id:job.id ~crashes))
      end
      else if not (Admission.push_force t.queue { job with attempt = crashes }) then
        (* Queue already closed: the retry cannot run, but the request
           still gets an answer. *)
        job.deliver None (Proto.error_reply ~id:job.id (Proto.shutdown_error ~id:job.id)));
  if not (Atomic.get t.stopping) then spawn t slot

let rec supervise t =
  Array.iter (fun slot -> if Atomic.get slot.dead then handle_dead t slot) t.slots;
  if not (Atomic.get t.stopping) then begin
    Thread.delay 0.002;
    supervise t
  end

let create ~queue ~stats ~cache ~clock ~faults_enabled ~max_retries ~workers () =
  let t =
    {
      queue;
      stats;
      cache;
      clock;
      faults_enabled;
      max_retries = max 0 max_retries;
      slots =
        Array.init (max 1 workers) (fun _ ->
            { domain = None; current = Atomic.make None; dead = Atomic.make false });
      qlock = Mutex.create ();
      quarantine = Hashtbl.create 8;
      stopping = Atomic.make false;
      supervisor = None;
    }
  in
  Array.iter (fun slot -> spawn t slot) t.slots;
  t.supervisor <- Some (Thread.create supervise t);
  t

let idle t =
  Admission.depth t.queue = 0
  && Array.for_all
       (fun s -> Option.is_none (Atomic.get s.current) && not (Atomic.get s.dead))
       t.slots

let stop t =
  (* Drain, don't abort: close the door, let the workers finish the
     admitted backlog (the supervisor keeps restarting crashed domains
     throughout), then retire the pool. *)
  Admission.close t.queue;
  let rec wait () =
    if not (idle t) then begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ();
  Atomic.set t.stopping true;
  (match t.supervisor with Some th -> Thread.join th | None -> ());
  t.supervisor <- None;
  Array.iter
    (fun slot ->
      match slot.domain with
      | Some d ->
          Domain.join d;
          slot.domain <- None
      | None -> ())
    t.slots
