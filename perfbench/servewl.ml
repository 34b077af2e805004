(* serve: an `rbp serve` daemon in a child process (one worker domain)
   on a fresh Unix socket and cache directory, driven by one closed-loop
   client on one connection. One op is one compile request, timed from
   send until the reply is parsed. *)

open Common

type req = {
  loop : Ir.Loop.t;
  ir : string;  (** the textual IR the request carries *)
  machine : Mach.Machine.t;
  line : string;  (** the serialized request frame *)
}

(* One request per suite loop, the configurations taken in turn, so
   every (loop, configuration) pair is distinct; sent in a seeded order. *)
let inputs ~seed =
  let configs = Array.of_list Core.Experiment.paper_configs in
  shuffle ~seed
    (List.mapi
       (fun i loop ->
         let c = configs.(i mod Array.length configs) in
         let id = Printf.sprintf "r%03d" i in
         let ir = Ir.Parse.loop_to_string loop in
         let frame =
           Serve.Proto.Compile
             {
               Serve.Proto.id;
               ir;
               clusters = c.Core.Experiment.clusters;
               model = c.copy_model;
               deadline_ms = None;
               no_cache = false;
               fault = None;
               trace_id = Some ("bench-" ^ id);
               trace = false;
             }
         in
         { loop; ir; machine = c.machine; line = Serve.Proto.request_to_string frame })
       (suite ()))

let describe r = Ir.Loop.name r.loop ^ " on " ^ r.machine.Mach.Machine.name

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

type daemon = { pid : int; dir : string; client : Serve.Client.t }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Daemons still running; an early exit kills and reaps them. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let cache_dir d = Filename.concat d.dir "cache"

(* [dir] is relative to the working directory, which keeps the socket
   path short whatever the checkout's location. *)
let start ~rbp ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process rbp
      [| rbp; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "1"; "--cache-dir";
         Filename.concat dir "cache"; "--log-level"; "warn" |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let addr = Serve.Wire.Unix_path sock in
  let deadline = now () +. 60.0 in
  (* Serve.Client.connect ~retry_for polls every 50 ms; a 1 ms poll
     keeps that step out of setup_s. *)
  let rec ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> fail "daemon exited during start-up");
    match Serve.Client.connect addr with
    | Ok client -> (
        match Serve.Client.request ~timeout_s:60.0 client Serve.Proto.Ping with
        | Ok Serve.Proto.Pong -> client
        | Ok r -> fail "daemon answered ping with %s" (Serve.Proto.status_of_reply r)
        | Error e -> fail "ping: %s" e)
    | Error e ->
        if now () > deadline then fail "daemon not ready after 60 s: %s" e;
        Unix.sleepf 0.001;
        ready ()
  in
  { pid; dir; client = ready () }

(* Peak RSS of the daemon, then SIGTERM; the drain must exit 0. *)
let stop d =
  let rss = peak_rss_mib (string_of_int d.pid) in
  Serve.Client.close d.client;
  Unix.kill d.pid Sys.sigterm;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if now () > deadline then fail "daemon did not drain within 60 s";
        Unix.sleepf 0.002;
        wait ()
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> fail "daemon drain exited %d" c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "daemon killed by signal %d" s
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live;
  rm_rf d.dir;
  rss

let clear_cache d = ignore (Engine.Cache.clear ~dir:(cache_dir d) ())

(* ------------------------------------------------------------------ *)
(* One request                                                         *)

type answer = {
  reply : Serve.Proto.result_reply;
  bytes : int;
  roundtrip_ms : float;  (** send through reply line received *)
  decode_ms : float;     (** Proto.reply_of_string *)
}

let roundtrip d r =
  let t0 = now () in
  (match Serve.Client.send_line d.client r.line with Ok () -> () | Error e -> failwith e);
  let line =
    match Serve.Client.recv_line ~timeout_s:120.0 d.client with
    | Ok l -> l
    | Error e -> failwith e
  in
  let t1 = now () in
  let reply = Serve.Proto.reply_of_string line in
  let t2 = now () in
  match reply with
  | Ok (Serve.Proto.Result reply) ->
      Ok
        {
          reply;
          bytes = String.length line;
          roundtrip_ms = 1000.0 *. (t1 -. t0);
          decode_ms = 1000.0 *. (t2 -. t1);
        }
  | Ok other -> Error ("reply status " ^ Serve.Proto.status_of_reply other)
  | Error e -> Error ("undecodable reply: " ^ e)

(* A later pass must repeat the first pass's reply, timing aside, and
   miss the cache again. *)
let same (a : answer) (b : answer) =
  b.reply.cache = Serve.Proto.Miss
  && { a.reply with timing = Serve.Proto.zero_timing }
     = { b.reply with timing = Serve.Proto.zero_timing }

(* The traced client: the serve.* layer numbers of one answer. *)
let record (a : answer) =
  let t = a.reply.timing in
  Layers.add_ms "serve.roundtrip" a.roundtrip_ms;
  Layers.add_ms "serve.decode" a.decode_ms;
  Layers.add_ms "serve.queue" t.queue_ms;
  Layers.add_ms "serve.compile" t.compile_ms;
  Layers.add_ms "serve.total" t.total_ms;
  Layers.add_ms "serve.overhead" (a.roundtrip_ms -. t.total_ms);
  Layers.count "serve.cache_hits" (if a.reply.cache = Serve.Proto.Hit then 1.0 else 0.0);
  Layers.count "serve.reply_bytes" (float_of_int a.bytes)

let client_metrics ~traced_ops ~distinct =
  let per_op x = x /. float_of_int traced_ops and per_distinct x = x /. float_of_int distinct in
  List.map
    (fun l -> (l ^ "_ms", per_op (Layers.ms l)))
    [ "serve.roundtrip"; "serve.decode"; "serve.queue"; "serve.compile"; "serve.total";
      "serve.overhead" ]
  @ [
      ("serve.cache_hit_ratio", per_distinct (Layers.total "serve.cache_hits"));
      ("serve.reply_bytes", per_distinct (Layers.total "serve.reply_bytes"));
    ]

(* ------------------------------------------------------------------ *)
(* Output checks and the in-process compile split                      *)

(* The request as the daemon sees it: IR parsed back from the frame. *)
let parsed r =
  match Ir.Parse.loop_of_string r.ir with Ok l -> l | Error e -> fail "IR round trip: %s" e

(* A reply must be a cache miss whose metrics, rung and spill count match
   an in-process Robust.Driver.run of the same request. With [~traced]
   the ladder, a re-allocation of its emitted body and its
   re-verification run under spans: the compile split. *)
let ladder_check ~traced r (a : answer) =
  let loop = parsed r in
  let span name f = if traced then Layers.span name f else f () in
  match a.reply.outcome with
  | _ when a.reply.cache <> Serve.Proto.Miss ->
      Error ("cache " ^ Serve.Proto.cache_status_name a.reply.cache)
  | Error e -> Error ("daemon: " ^ Verify.Stage_error.to_string e)
  | Ok metrics -> (
      match span "robust.ladder" (fun () -> Robust.Driver.run ~machine:r.machine loop) with
      | Error e -> Error ("in-process ladder: " ^ Verify.Stage_error.to_string e)
      | Ok res ->
          if traced then begin
            Layers.count "robust.rungs" (float_of_int (List.length res.attempts + 1));
            Layers.count "regalloc.spills" (float_of_int res.spill_count);
            ignore
              (span "regalloc.alloc" (fun () ->
                   Regalloc.Alloc.allocate_loop ~machine:r.machine ~assignment:res.assignment
                     res.rewritten));
            ignore (span "verify.diags" (fun () -> Robust.Driver.verify_diags res))
          end;
          if Serve.Worker.metrics_of_result res <> metrics then
            Error "reply metrics differ from the in-process ladder"
          else if Some (Robust.Driver.rung_name res.rung) <> a.reply.rung then
            Error "reply rung differs from the in-process ladder"
          else if res.spill_count <> a.reply.spills then
            Error "reply spill count differs from the in-process ladder"
          else Ok metrics)

(* Engine.Cache store and find of every reply payload, in a temporary
   cache keyed as the daemon keys its entries. *)
let cache_roundtrip ~dir reqs (answers : (answer, string) result array) =
  let c = Engine.Cache.open_ ~dir () in
  Array.iteri
    (fun i a ->
      match a with
      | Error _ -> ()
      | Ok a ->
          let r = reqs.(i) in
          let key = Serve.Server.job_key ~machine:r.machine (parsed r) in
          let payload = Serve.Proto.reply_to_json (Serve.Proto.Result a.reply) in
          Layers.span "engine.cache.store" (fun () -> Engine.Cache.store c ~key payload);
          match Layers.span "engine.cache.find" (fun () -> Engine.Cache.find c ~key) with
          | Some p when p = payload -> ()
          | _ -> fail "temporary cache lost the entry for %s" (Ir.Loop.name r.loop))
    answers;
  rm_rf dir

let split_metrics ~distinct =
  let per x = x /. float_of_int distinct in
  [
    ("robust.ladder_ms", per (Layers.ms "robust.ladder"));
    ("robust.ladder_kw", per (Layers.kw "robust.ladder"));
    ("robust.rungs", per (Layers.total "robust.rungs"));
    ("regalloc.alloc_ms", per (Layers.ms "regalloc.alloc"));
    ("regalloc.spills", per (Layers.total "regalloc.spills"));
    ("verify.diags_ms", per (Layers.ms "verify.diags"));
    ("engine.cache.store_ms", per (Layers.ms "engine.cache.store"));
    ("engine.cache.find_ms", per (Layers.ms "engine.cache.find"));
  ]
