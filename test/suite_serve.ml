open Testlib
open Serve

(* The compilation service (lib/serve): wire-protocol codec, admission
   control, line framing, concurrent stats, and an end-to-end in-process
   daemon exercised over a real Unix socket — ping, compile, cache hits,
   malformed frames, overload shedding, deadline timeouts, quarantine
   and graceful shutdown. *)

let sample_metrics =
  {
    Core.Metrics.name = "daxpy-u2";
    ideal_ii = 4;
    clustered_ii = 5;
    degradation = 125.0;
    ipc_ideal = 4.0;
    ipc_clustered = 3.2;
    n_copies = 3;
    n_ops = 16;
  }

let sample_result =
  {
    Proto.id = "req-1";
    trace_id = None;
    outcome = Ok sample_metrics;
    rung = Some "greedy budget=10";
    pipelined = true;
    flat_cycles = None;
    cache = Proto.Miss;
    spills = 2;
    attempts = [ "partitioning: bad [PT002]" ];
    timing = { Proto.queue_ms = 1.5; compile_ms = 20.25; total_ms = 21.75 };
    trace = None;
  }

let reply_roundtrip r =
  match Proto.reply_of_string (Proto.reply_to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "reply did not round-trip: %s" e

let request_roundtrip r =
  match Proto.request_of_string (Proto.request_to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "request did not round-trip: %s" e

let proto_tests =
  [
    case "requests-round-trip" (fun () ->
        let compile =
          Proto.Compile
            {
              Proto.id = "abc";
              ir = "loop \"l\" {\n}\n";
              clusters = 4;
              model = Mach.Machine.Copy_unit;
              deadline_ms = Some 250.0;
              no_cache = true;
              fault = Some "crash-worker";
              trace_id = None;
              trace = false;
            }
        in
        let traced =
          match compile with
          | Proto.Compile c ->
              Proto.Compile { c with Proto.trace_id = Some "abcd.1234"; trace = true }
          | r -> r
        in
        List.iter
          (fun r -> check Alcotest.bool "round-trips" true (request_roundtrip r = r))
          [ compile; traced; Proto.Ping; Proto.Stats; Proto.Metrics;
            Proto.Flight { id = None; anomalies = false };
            Proto.Flight { id = Some "e220a8397b1dcdaf"; anomalies = true };
            Proto.Shutdown ]);
    case "replies-round-trip" (fun () ->
        List.iter
          (fun r -> check Alcotest.bool "round-trips" true (reply_roundtrip r = r))
          [
            Proto.Result sample_result;
            Proto.Result
              { sample_result with
                Proto.trace_id = Some "e220a8397b1dcdaf";
                trace =
                  Some
                    (Obs.Json.Obj
                       [ ("spans", Obs.Json.List []);
                         ("truncated", Obs.Json.Bool false) ]) };
            Proto.Result
              { sample_result with
                Proto.outcome =
                  Error
                    (Verify.Stage_error.make ~code:"PIPE008"
                       ~stage:Verify.Stage_error.Clustered_schedule ~subject:"l"
                       "deadline exceeded");
                rung = None; pipelined = false; flat_cycles = Some 9 };
            Proto.Overload { id = "x"; depth = 64; retry_after_ms = 50.0 };
            Proto.Bad_frame { detail = "frame is not JSON" };
            Proto.Pong;
            Proto.Stats_reply [ ("serve.admitted", 3); ("serve.completed", 2) ];
            Proto.Metrics_reply
              (Obs.Json.Obj
                 [ ("schema", Obs.Json.Str "rbp-metrics/1");
                   ("uptime_s", Obs.Json.Num 1.5);
                   ("counters", Obs.Json.Obj [ ("serve.admitted", Obs.Json.Num 3.0) ]) ]);
            Proto.Flight_reply
              (Obs.Json.Obj
                 [ ("schema", Obs.Json.Str Flight.schema);
                   ("requests", Obs.Json.List []) ]);
            Proto.Bye;
          ]);
    case "statuses-follow-the-contract" (fun () ->
        check Alcotest.string "ok" "ok" (Proto.status_of_reply (Proto.Result sample_result));
        check Alcotest.string "timeout" "timeout"
          (Proto.status_of_reply
             (Proto.Result (Proto.error_reply ~id:"t" (Proto.queue_timeout_error ~id:"t"))));
        check Alcotest.string "quarantine is error" "error"
          (Proto.status_of_reply
             (Proto.Result
                (Proto.error_reply ~id:"q" (Proto.quarantine_error ~id:"q" ~crashes:3))));
        check Alcotest.string "overload" "overload"
          (Proto.status_of_reply (Proto.Overload { id = ""; depth = 0; retry_after_ms = 25.0 }));
        check Alcotest.string "bad_frame" "bad_frame"
          (Proto.status_of_reply (Proto.Bad_frame { detail = "" }));
        check Alcotest.string "metrics" "metrics"
          (Proto.status_of_reply (Proto.Metrics_reply Obs.Json.Null)));
    case "structured-failures-carry-their-codes" (fun () ->
        check Alcotest.string "queue timeout is the ladder deadline code"
          Partition.Driver.deadline_code (Proto.queue_timeout_error ~id:"a").Verify.Stage_error.code;
        check Alcotest.string "quarantine" Proto.code_quarantined
          (Proto.quarantine_error ~id:"a" ~crashes:1).Verify.Stage_error.code;
        check Alcotest.string "shutdown" Proto.code_shutting_down
          (Proto.shutdown_error ~id:"a").Verify.Stage_error.code);
    case "garbage-frames-are-parse-errors" (fun () ->
        List.iter
          (fun s ->
            match Proto.request_of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted garbage frame %S" s)
          [ "}{ not json"; "[]"; "{\"op\":\"nope\"}"; "{\"no\":\"op\"}";
            "{\"op\":\"compile\"}" (* missing ir *) ]);
    case "model-and-cache-names-round-trip" (fun () ->
        List.iter
          (fun m ->
            check Alcotest.bool "model" true
              (Proto.model_of_name (Proto.model_name m) = Some m))
          [ Mach.Machine.Embedded; Mach.Machine.Copy_unit ];
        List.iter
          (fun c ->
            check Alcotest.bool "cache status" true
              (Proto.cache_status_of_name (Proto.cache_status_name c) = Some c))
          [ Proto.Hit; Proto.Miss; Proto.Bypass ]);
  ]

let admission_tests =
  [
    case "fifo-under-the-limit" (fun () ->
        let q = Admission.create ~limit:8 () in
        check Alcotest.bool "depth 1" true (Admission.try_push q 'a' = `Admitted 1);
        check Alcotest.bool "depth 2" true (Admission.try_push q 'b' = `Admitted 2);
        check Alcotest.int "depth" 2 (Admission.depth q);
        check Alcotest.bool "fifo a" true (Admission.pop q = Some 'a');
        check Alcotest.bool "fifo b" true (Admission.pop q = Some 'b');
        check Alcotest.int "drained" 0 (Admission.depth q));
    case "full-queue-sheds-with-a-quote" (fun () ->
        let q = Admission.create ~limit:2 () in
        ignore (Admission.try_push q 1);
        ignore (Admission.try_push q 2);
        (match Admission.try_push q 3 with
        | `Shed ra ->
            check Alcotest.bool "quote at least the base" true
              (ra >= Admission.retry_after_base_ms)
        | `Admitted _ | `Closed -> Alcotest.fail "full queue must shed");
        check Alcotest.int "shed did not enqueue" 2 (Admission.depth q));
    case "limit-zero-admits-nothing" (fun () ->
        let q = Admission.create ~limit:0 () in
        match Admission.try_push q () with
        | `Shed _ -> ()
        | `Admitted _ | `Closed -> Alcotest.fail "limit 0 must shed everything");
    case "force-push-bypasses-the-limit" (fun () ->
        (* the supervisor requeueing a crashed worker's job is never shed *)
        let q = Admission.create ~limit:0 () in
        check Alcotest.bool "forced in" true (Admission.push_force q 7);
        check Alcotest.bool "and popped" true (Admission.pop q = Some 7));
    case "close-drains-then-refuses" (fun () ->
        let q = Admission.create ~limit:8 () in
        ignore (Admission.try_push q "in-flight");
        Admission.close q;
        check Alcotest.bool "closed" true (Admission.closed q);
        check Alcotest.bool "producers refused" true (Admission.try_push q "late" = `Closed);
        check Alcotest.bool "force refused too" true (not (Admission.push_force q "late"));
        check Alcotest.bool "admitted work still drains" true
          (Admission.pop q = Some "in-flight");
        check Alcotest.bool "then consumers see the end" true (Admission.pop q = None));
    case "pop-blocks-across-threads" (fun () ->
        let q = Admission.create ~limit:50 () in
        let got = ref [] in
        let consumer =
          Thread.create
            (fun () ->
              let rec go () =
                match Admission.pop q with
                | Some v -> got := v :: !got; go ()
                | None -> ()
              in
              go ())
            ()
        in
        for i = 1 to 50 do ignore (Admission.try_push q i) done;
        Admission.close q;
        Thread.join consumer;
        check Alcotest.(list int) "all items, in order" (List.init 50 (fun i -> i + 1))
          (List.rev !got));
  ]

let wire_tests =
  [
    case "addresses-parse-and-print" (fun () ->
        let ok s expect =
          match Wire.addr_of_string s with
          | Ok a -> check Alcotest.bool (Printf.sprintf "%S parses" s) true (a = expect)
          | Error e -> Alcotest.failf "%S rejected: %s" s e
        in
        ok "unix:/tmp/rbp.sock" (Wire.Unix_path "/tmp/rbp.sock");
        ok "/tmp/rbp.sock" (Wire.Unix_path "/tmp/rbp.sock");
        ok "tcp:127.0.0.1:9000" (Wire.Tcp ("127.0.0.1", 9000));
        ok "localhost:9000" (Wire.Tcp ("localhost", 9000));
        ok "tcp::9000" (Wire.Tcp ("127.0.0.1", 9000));
        (match Wire.addr_of_string "tcp:host:notaport" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "bad port accepted");
        List.iter
          (fun a ->
            match Wire.addr_of_string (Wire.addr_to_string a) with
            | Ok a' -> check Alcotest.bool "round-trips" true (a = a')
            | Error e -> Alcotest.failf "printed address rejected: %s" e)
          [ Wire.Unix_path "/x/y.sock"; Wire.Tcp ("::1", 1); Wire.Tcp ("h", 65535) ]);
    case "line-framing-over-a-socketpair" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close a; try Unix.close b with Unix.Unix_error _ -> ())
        @@ fun () ->
        let rd = Wire.reader a in
        (* two frames in one write, CRLF on the second *)
        (match Wire.write_all b "first\nsecond\r\n" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write failed: %s" e);
        check Alcotest.bool "first frame" true
          (Wire.read_line ~idle_timeout_s:2.0 rd = `Line "first");
        check Alcotest.bool "second frame, CR stripped" true
          (Wire.read_line ~idle_timeout_s:2.0 rd = `Line "second");
        Unix.close b;
        check Alcotest.bool "eof after peer closes" true
          (Wire.read_line ~idle_timeout_s:2.0 rd = `Eof));
    case "oversized-frames-are-rejected" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
        let rd = Wire.reader a in
        ignore (Wire.write_all b (String.make 64 'x'));
        check Alcotest.bool "too long without a newline" true
          (Wire.read_line ~idle_timeout_s:2.0 ~max_frame:16 rd = `Too_long));
    case "idle-budget-expires" (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
        let rd = Wire.reader a in
        (* nothing ever arrives: the total budget runs out *)
        check Alcotest.bool "idle" true
          (Wire.read_line ~slice_s:0.01 ~idle_timeout_s:0.05 rd = `Idle));
  ]

(* A gc sampler frozen at one real reading: byte-stable documents
   without faking the whole [Gc.stat] record. *)
let frozen_gc = lazy (Gc.quick_stat ())
let frozen_gc_stat () = Lazy.force frozen_gc

(* A [Result] reply with the given provenance and timing — what the
   server's recording point hands [Stats.note_result]. *)
let timed_result ~rung ~cache_hit ~queue_ms ~compile_ms ~total_ms =
  {
    sample_result with
    Proto.rung;
    cache = (if cache_hit then Proto.Hit else Proto.Miss);
    timing = { Proto.queue_ms; compile_ms; total_ms };
  }

let stats_tests =
  [
    case "bump-get-snapshot" (fun () ->
        let s = Stats.make () in
        Stats.bump s Obs.Counter.Serve_admitted 2;
        Stats.bump s Obs.Counter.Serve_admitted 1;
        Stats.bump s Obs.Counter.Serve_completed 1;
        check Alcotest.int "accumulates" 3 (Stats.get s Obs.Counter.Serve_admitted);
        check Alcotest.int "untouched cell is zero" 0 (Stats.get s Obs.Counter.Serve_shed);
        let snap = Stats.snapshot s in
        check Alcotest.bool "snapshot sorted by name" true
          (snap = List.sort (fun (a, _) (b, _) -> compare a b) snap);
        check Alcotest.int "only touched cells" 2 (List.length snap));
    case "absorbing-a-trace-folds-its-counters" (fun () ->
        let s = Stats.make () in
        let tr = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
        Obs.Trace.incr (Some tr) ~label:"a" Obs.Counter.Engine_cache_corrupt 1;
        Obs.Trace.incr (Some tr) ~label:"b" Obs.Counter.Engine_cache_corrupt 2;
        Stats.absorb s tr;
        check Alcotest.int "labels collapsed into the total" 3
          (Stats.get s Obs.Counter.Engine_cache_corrupt));
    case "bumps-race-free-across-threads" (fun () ->
        let s = Stats.make () in
        let ts =
          List.init 4 (fun _ ->
              Thread.create
                (fun () ->
                  for _ = 1 to 1000 do Stats.bump s Obs.Counter.Serve_completed 1 done)
                ())
        in
        List.iter Thread.join ts;
        check Alcotest.int "no lost updates" 4000 (Stats.get s Obs.Counter.Serve_completed));
    case "metrics-document-shape" (fun () ->
        let s = Stats.make ~clock:(Obs.Clock.frozen 2.0) ~gc_stat:frozen_gc_stat () in
        Stats.note_admitted s;
        Stats.note_result s
          (timed_result ~rung:(Some "greedy budget=10") ~cache_hit:false ~queue_ms:1.0
             ~compile_ms:20.0 ~total_ms:21.0);
        Stats.note_result s
          (timed_result ~rung:(Some "greedy budget=10") ~cache_hit:true ~queue_ms:0.5
             ~compile_ms:0.0 ~total_ms:0.5);
        let j = Stats.metrics_json s in
        check Alcotest.bool "schema marker" true
          (Option.bind (Obs.Json.member "schema" j) Obs.Json.to_str = Some Stats.schema);
        let m = Serve.Metrics.of_json j in
        match m with
        | Error e -> Alcotest.failf "own document rejected: %s" e
        | Ok m ->
            check Alcotest.int "both results in the total series" 2
              m.Serve.Metrics.total.Serve.Metrics.count;
            (match m.Serve.Metrics.rungs with
            | [ (name, series) ] ->
                check Alcotest.string "rung name" "greedy budget=10" name;
                (* the cache hit must not dilute the rung's compile series *)
                check Alcotest.int "cache hit skipped" 1 series.Serve.Metrics.count
            | rungs -> Alcotest.failf "expected one rung, got %d" (List.length rungs));
            check Alcotest.bool "gc gauges present and sane" true
              (match List.assoc_opt "live_words" m.Serve.Metrics.gc with
              | Some w -> w >= 0.0 && List.mem_assoc "major_collections" m.Serve.Metrics.gc
              | None -> false));
    case "fake-clock-metrics-are-byte-identical" (fun () ->
        let drive () =
          let s =
            Stats.make
              ~clock:(Obs.Clock.fake ~start:100.0 ~step:0.125 ())
              ~gc_stat:frozen_gc_stat ()
          in
          Stats.note_shed s;
          for i = 1 to 4 do
            Stats.note_admitted s;
            Stats.note_result s
              (timed_result
                 ~rung:(if i mod 2 = 0 then Some "greedy budget=10" else Some "ilp")
                 ~cache_hit:(i = 4) ~queue_ms:(float_of_int i *. 0.25)
                 ~compile_ms:(float_of_int i *. 3.0)
                 ~total_ms:(float_of_int i *. 3.25))
          done;
          Obs.Json.to_string (Stats.metrics_json s)
        in
        check Alcotest.string "two identically-driven daemons agree byte-for-byte"
          (drive ()) (drive ()));
  ]

(* --- the flight recorder: two rings, one mutex ----------------------- *)

let flight_entry ?(status = "ok") ?anomaly ?(id = "r") ?trace trace_id =
  {
    Flight.trace_id;
    id;
    status;
    anomaly;
    rung = Some "pipelined(greedy, budget=10)";
    cache = "miss";
    queue_ms = 0.25;
    compile_ms = 2.0;
    total_ms = 2.25;
    attempts = [];
    trace;
    ts = 0.0;
  }

let flight_tests =
  [
    case "request-ring-evicts-oldest-first" (fun () ->
        let t = Flight.make ~capacity:4 ~clock:(Obs.Clock.frozen 0.0) () in
        for i = 1 to 6 do
          Flight.record t (flight_entry (Printf.sprintf "t%d" i))
        done;
        check Alcotest.(list string) "last four, oldest first"
          [ "t3"; "t4"; "t5"; "t6" ]
          (List.map (fun e -> e.Flight.trace_id) (Flight.requests t)));
    case "anomaly-ring-survives-a-burst" (fun () ->
        let t = Flight.make ~capacity:4 ~anomaly_capacity:4 ~clock:(Obs.Clock.frozen 0.0) () in
        Flight.record t (flight_entry ~status:"timeout" ~anomaly:"timeout" "victim");
        (* a burst of healthy traffic far beyond both capacities *)
        for i = 1 to 32 do
          Flight.record t (flight_entry (Printf.sprintf "ok%d" i))
        done;
        check Alcotest.bool "evicted from the request ring" true
          (not (List.exists (fun e -> e.Flight.trace_id = "victim") (Flight.requests t)));
        check Alcotest.(list string) "still in the anomaly ring" [ "victim" ]
          (List.map (fun e -> e.Flight.trace_id) (Flight.anomalies t));
        match Flight.find t "victim" with
        | Some e -> check Alcotest.string "findable by trace id" "timeout" e.Flight.status
        | None -> Alcotest.fail "anomaly not findable");
    case "sheds-land-only-in-the-anomaly-ring" (fun () ->
        let t = Flight.make ~clock:(Obs.Clock.frozen 0.0) () in
        Flight.record t (Flight.shed ~trace_id:"s1" ~id:"req" ~ts:1.0);
        check Alcotest.int "request ring untouched" 0 (List.length (Flight.requests t));
        match Flight.anomalies t with
        | [ e ] ->
            check Alcotest.string "status" "overload" e.Flight.status;
            check Alcotest.bool "anomaly tag" true (e.Flight.anomaly = Some "overload")
        | l -> Alcotest.failf "expected one anomaly, got %d" (List.length l));
    case "documents-round-trip" (fun () ->
        let t = Flight.make ~capacity:8 ~clock:(Obs.Clock.frozen 0.0) () in
        Flight.record t
          (flight_entry
             ~trace:(Obs.Json.Obj
                       [ ("spans", Obs.Json.List []);
                         ("truncated", Obs.Json.Bool false) ])
             "a1");
        Flight.record t (flight_entry ~status:"timeout" ~anomaly:"timeout" "a2");
        let doc = Flight.to_json t in
        (match Flight.entries_of_json doc with
        | Error e -> Alcotest.failf "own document rejected: %s" e
        | Ok (reqs, anoms) ->
            check Alcotest.(list string) "requests" [ "a1"; "a2" ]
              (List.map (fun e -> e.Flight.trace_id) reqs);
            check Alcotest.(list string) "anomalies" [ "a2" ]
              (List.map (fun e -> e.Flight.trace_id) anoms);
            check Alcotest.bool "span tree retained" true
              ((List.hd reqs).Flight.trace <> None));
        (match Flight.entries_of_json (Obs.Json.Obj [ ("schema", Obs.Json.Str "nope/9") ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "foreign schema accepted");
        match Flight.render doc with
        | Ok text ->
            check Alcotest.bool "render mentions the trace ids" true
              (let has needle =
                 let nl = String.length needle and tl = String.length text in
                 let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
                 go 0
               in
               has "a1" && has "a2")
        | Error e -> Alcotest.failf "render: %s" e);
    case "id-filter-narrows-both-rings" (fun () ->
        let t = Flight.make ~clock:(Obs.Clock.frozen 0.0) () in
        Flight.record t (flight_entry "keep");
        Flight.record t (flight_entry "drop");
        Flight.record t (flight_entry ~status:"timeout" ~anomaly:"timeout" "keep");
        match Flight.entries_of_json (Flight.to_json ~id:"keep" t) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok (reqs, anoms) ->
            check Alcotest.int "one kept request... " 2 (List.length reqs);
            check Alcotest.bool "...all carrying the id" true
              (List.for_all (fun e -> e.Flight.trace_id = "keep") reqs);
            check Alcotest.int "one kept anomaly" 1 (List.length anoms));
  ]

(* --- client-side metrics: parse, dashboard, Prometheus --------------- *)

(* A hand-built rbp-metrics/1 document, driven through a real [Stats] so
   the producer and the consumer are tested against each other. *)
let sample_metrics_doc () =
  let s = Stats.make ~clock:(Obs.Clock.frozen 30.0) ~gc_stat:frozen_gc_stat () in
  Stats.note_admitted s;
  Stats.note_admitted s;
  Stats.note_admitted s;
  Stats.note_result s
    (timed_result ~rung:(Some "greedy budget=10") ~cache_hit:false ~queue_ms:2.0
       ~compile_ms:40.0 ~total_ms:42.0);
  Stats.note_result s
    (timed_result ~rung:(Some "greedy budget=10") ~cache_hit:false ~queue_ms:4.0
       ~compile_ms:80.0 ~total_ms:84.0);
  Stats.note_result s
    (timed_result ~rung:None ~cache_hit:true ~queue_ms:1.0 ~compile_ms:0.0 ~total_ms:1.0);
  Stats.metrics_json s

let metrics_tests =
  [
    case "documents-parse-to-typed-views" (fun () ->
        match Metrics.of_json (sample_metrics_doc ()) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok m ->
            check Alcotest.int "three totals" 3 m.Metrics.total.Metrics.count;
            check Alcotest.bool "frozen clock means zero uptime" true
              (m.Metrics.uptime_s = 0.0);
            check Alcotest.bool "p99 within observed range" true
              (m.Metrics.compile.Metrics.p99 <= m.Metrics.compile.Metrics.max);
            check Alcotest.bool "counters present" true
              (List.assoc_opt "serve.admitted" m.Metrics.counters = Some 3);
            check Alcotest.bool "both lookback windows" true
              (List.mem_assoc "10s" m.Metrics.windows
              && List.mem_assoc "60s" m.Metrics.windows);
            let w = List.assoc "10s" m.Metrics.windows in
            check Alcotest.bool "cache hit ratio is a fraction" true
              (w.Metrics.cache_hit_ratio >= 0.0 && w.Metrics.cache_hit_ratio <= 1.0));
    case "wrong-schema-is-rejected" (fun () ->
        match Metrics.of_json (Obs.Json.Obj [ ("schema", Obs.Json.Str "nope/9") ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "foreign schema accepted");
    case "dashboard-renders-every-section" (fun () ->
        match Metrics.of_json (sample_metrics_doc ()) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok m ->
            let text = Metrics.render m in
            let contains needle =
              check Alcotest.bool (Printf.sprintf "mentions %S" needle) true
                (let nl = String.length needle and tl = String.length text in
                 let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
                 go 0)
            in
            List.iter contains
              [ "queue"; "compile"; "total"; "greedy budget=10"; "10s"; "60s";
                "serve.admitted" ]);
    case "prometheus-exposition-is-stable-and-well-formed" (fun () ->
        match Metrics.of_json (sample_metrics_doc ()) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok m ->
            let text = Metrics.prometheus m in
            check Alcotest.string "byte-stable for a given document" text
              (Metrics.prometheus m);
            let lines = String.split_on_char '\n' text in
            let names =
              List.filter_map
                (fun l ->
                  match String.index_opt l ' ' with
                  | Some _ when String.length l > 7 && String.sub l 0 7 = "# TYPE " ->
                      let rest = String.sub l 7 (String.length l - 7) in
                      Option.map (fun i -> String.sub rest 0 i) (String.index_opt rest ' ')
                  | _ -> None)
                lines
            in
            check Alcotest.bool "at least counters + summaries + gauges" true
              (List.length names >= 5);
            check Alcotest.(list string) "families sorted by metric name"
              (List.sort compare names) names;
            List.iter
              (fun l ->
                if l <> "" && l.[0] <> '#' then
                  check Alcotest.bool (Printf.sprintf "sample line %S has a value" l) true
                    (String.contains l ' '))
              lines;
            check Alcotest.bool "summary quantiles exposed" true
              (List.exists
                 (fun l ->
                   let needle = "quantile=\"0.99\"" in
                   let nl = String.length needle and ll = String.length l in
                   let rec go i = i + nl <= ll && (String.sub l i nl = needle || go (i + 1)) in
                   go 0)
                 lines));
  ]

(* --- end-to-end: a live daemon on a Unix socket ---------------------- *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Start [Server.run] on a fresh Unix socket in a background thread and
   hand the address to [f]; shutdown (via the wire op) and cleanup are
   guaranteed. Returns the daemon's exit code. *)
let with_daemon ?(workers = 2) ?queue_limit ?default_deadline_ms ?max_retries
    ?(cache = false) ?clock ?logger ?trace_seed f =
  let dir = temp_dir "rbp-serve-test" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let addr = Wire.Unix_path (Filename.concat dir "d.sock") in
  let cache = if cache then Some (Engine.Cache.open_ ~dir:(Filename.concat dir "cache") ()) else None in
  let logger = Option.value logger ~default:Obs.Log.null in
  let cfg =
    Server.config ~workers ?queue_limit ?default_deadline_ms ?max_retries ?cache
      ~faults_enabled:true ~allow_shutdown:true ?clock ~logger ?trace_seed addr
  in
  let code = ref (-1) in
  let daemon = Thread.create (fun () -> code := Server.run cfg) () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        (* idempotent: a second shutdown frame after [f]'s own is refused
           at connect and ignored *)
        (match Client.connect ~retry_for:1.0 addr with
        | Ok c ->
            ignore (Client.request ~timeout_s:5.0 c Proto.Shutdown);
            Client.close c
        | Error _ -> ());
        Thread.join daemon)
    @@ fun () -> f addr
  in
  (r, !code)

let connect_ok addr =
  match Client.connect ~retry_for:5.0 addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request_ok c req =
  match Client.request ~timeout_s:30.0 c req with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request: %s" e

let compile_req ?(id = "r") ?deadline_ms ?(no_cache = false) ?fault ?trace_id
    ?(trace = false) loop =
  Proto.Compile
    {
      Proto.id;
      ir = Ir.Parse.loop_to_string loop;
      clusters = 4;
      model = Mach.Machine.Embedded;
      deadline_ms;
      no_cache;
      fault;
      trace_id;
      trace;
    }

let expect_result what = function
  | Proto.Result r -> r
  | reply -> Alcotest.failf "%s: unexpected %s reply" what (Proto.status_of_reply reply)

(* The request keys as the server computed them before it shared one
   fingerprint pair between them. *)
let old_job_key ~machine loop =
  Engine.Key.make
    [
      ("loop", Core.Batch.fingerprint_loop loop);
      ("machine", Core.Batch.fingerprint_machine machine);
      ("options", "serve/ladder-default");
    ]

let old_quarantine_key ~machine ~fault loop =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Core.Batch.fingerprint_loop loop;
            Core.Batch.fingerprint_machine machine;
            Option.value ~default:"" fault;
          ]))

let key_tests =
  [
    case "keys-from-one-fingerprint-pair-are-unchanged" (fun () ->
        List.iter
          (fun loop ->
            List.iter
              (fun (cfg : Core.Experiment.config) ->
                let machine = cfg.Core.Experiment.machine in
                let p = Server.prints ~machine loop in
                let what = Ir.Loop.name loop ^ " on " ^ cfg.Core.Experiment.label in
                check Alcotest.string (what ^ " job key") (old_job_key ~machine loop)
                  (Server.job_key_of_prints p);
                check Alcotest.string (what ^ " public job key") (old_job_key ~machine loop)
                  (Server.job_key ~machine loop);
                List.iter
                  (fun fault ->
                    check Alcotest.string (what ^ " quarantine key")
                      (old_quarantine_key ~machine ~fault loop)
                      (Server.quarantine_key p ~fault))
                  [ None; Some "crash_worker"; Some "" ])
              Core.Experiment.paper_configs)
          (Workload.Suite.loops ()));
  ]

let daemon_tests =
  [
    slow_case "daemon-answers-the-basics" (fun () ->
        let (), code =
          with_daemon ~cache:true @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          (* ping *)
          check Alcotest.bool "pong" true (request_ok c Proto.Ping = Proto.Pong);
          (* a real compile: verified pipelined code with provenance *)
          let loop = Workload.Kernels.daxpy ~unroll:2 in
          let r = expect_result "compile" (request_ok c (compile_req ~id:"one" loop)) in
          check Alcotest.string "id echoed" "one" r.Proto.id;
          (match r.Proto.outcome with
          | Ok m ->
              check Alcotest.bool "ideal ii positive" true (m.Core.Metrics.ideal_ii > 0)
          | Error e -> Alcotest.failf "compile failed: %s" (Verify.Stage_error.to_string e));
          check Alcotest.bool "rung provenance" true (r.Proto.rung <> None);
          check Alcotest.bool "pipelined" true r.Proto.pipelined;
          check Alcotest.bool "first sight is a miss" true (r.Proto.cache = Proto.Miss);
          check Alcotest.bool "latency accounted" true
            (r.Proto.timing.Proto.total_ms >= 0.0);
          (* the same request again: served from the cache, same metrics *)
          let r2 = expect_result "cached" (request_ok c (compile_req ~id:"two" loop)) in
          check Alcotest.bool "repeat answer is a hit" true (r2.Proto.cache = Proto.Hit);
          check Alcotest.bool "identical outcome" true (r2.Proto.outcome = r.Proto.outcome);
          (* no_cache bypasses both ways *)
          let r3 =
            expect_result "bypass" (request_ok c (compile_req ~id:"three" ~no_cache:true loop))
          in
          check Alcotest.bool "bypass" true (r3.Proto.cache = Proto.Bypass);
          (* malformed frame: structured reply, connection survives *)
          (match Client.send_line c "}{ not a frame" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" e);
          (match Client.recv_reply c with
          | Ok (Proto.Bad_frame _) -> ()
          | Ok reply ->
              Alcotest.failf "garbage got %s" (Proto.status_of_reply reply)
          | Error e -> Alcotest.failf "recv: %s" e);
          check Alcotest.bool "connection survives garbage" true
            (request_ok c Proto.Ping = Proto.Pong);
          (* broken IR compiles to a structured error, not a dropped line *)
          let bad =
            Proto.Compile
              { Proto.id = "bad"; ir = "loop \"x\" { this is not ir }";
                clusters = 4; model = Mach.Machine.Embedded;
                deadline_ms = None; no_cache = false; fault = None;
                trace_id = None; trace = false }
          in
          let rb = expect_result "bad ir" (request_ok c bad) in
          (match rb.Proto.outcome with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "malformed IR must fail structurally");
          (* live counters over the wire *)
          match request_ok c Proto.Stats with
          | Proto.Stats_reply counters ->
              (* the three well-formed compiles were admitted; the
                 malformed-IR one was answered at the gate *)
              check Alcotest.bool "admissions counted" true
                (match List.assoc_opt "serve.admitted" counters with
                | Some n -> n >= 3
                | None -> false);
              check Alcotest.bool "cache hit counted" true
                (List.assoc_opt "serve.cache_hits" counters = Some 1)
          | reply -> Alcotest.failf "stats got %s" (Proto.status_of_reply reply)
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "served-counters-equal-a-full-trace" (fun () ->
        (* The request trace keeps no event list, but its counters must
           be those of a full trace of the same ladder run. *)
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        let machine = Mach.Machine.paper_clustered ~clusters:4 ~copy_model:Mach.Machine.Embedded in
        let ladder events =
          let tr = Obs.Trace.make ~events ~clock:(Obs.Clock.fake ()) () in
          (match Robust.Driver.run ~obs:tr ~machine loop with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "ladder failed: %s" (Verify.Stage_error.to_string e));
          tr
        in
        let full = ladder true and lean = ladder false in
        check Alcotest.bool "the full trace keeps events" true (Obs.Trace.event_count full > 0);
        check Alcotest.int "the lean trace keeps none" 0 (List.length (Obs.Trace.events lean));
        check
          Alcotest.(list (triple string (option string) int))
          "counters" (Obs.Trace.counters full) (Obs.Trace.counters lean);
        check Alcotest.bool "gauges" true (Obs.Trace.gauges full = Obs.Trace.gauges lean);
        let want = Stats.make () in
        Stats.absorb want full;
        let served, code =
          with_daemon @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          ignore (expect_result "compile" (request_ok c (compile_req ~no_cache:true loop)));
          match request_ok c Proto.Stats with
          | Proto.Stats_reply counters -> counters
          | reply -> Alcotest.failf "stats got %s" (Proto.status_of_reply reply)
        in
        check Alcotest.int "clean shutdown" 0 code;
        check Alcotest.bool "the ladder counted something" true (Stats.snapshot want <> []);
        List.iter
          (fun (name, v) ->
            check Alcotest.(option int) name (Some v) (List.assoc_opt name served))
          (Stats.snapshot want));
    slow_case "daemon-times-out-and-quarantines" (fun () ->
        let (), code =
          with_daemon ~max_retries:0 @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let loop = Workload.Kernels.hydro ~unroll:2 in
          (* a near-zero deadline: structured PIPE008, never a hang *)
          let rt =
            expect_result "deadline"
              (request_ok c (compile_req ~id:"t" ~deadline_ms:0.01 loop))
          in
          (match rt.Proto.outcome with
          | Error e ->
              check Alcotest.string "deadline code" Partition.Driver.deadline_code
                e.Verify.Stage_error.code
          | Ok _ -> Alcotest.fail "a 0.01 ms deadline cannot be met");
          check Alcotest.string "status is timeout" "timeout"
            (Proto.status_of_reply (Proto.Result rt));
          (* poison request: the worker dies, the supervisor answers and
             quarantines (max_retries 0), and the daemon keeps serving *)
          let rq =
            expect_result "poison"
              (request_ok c (compile_req ~id:"p" ~fault:"crash-worker" loop))
          in
          (match rq.Proto.outcome with
          | Error e ->
              check Alcotest.string "quarantined" Proto.code_quarantined
                e.Verify.Stage_error.code
          | Ok _ -> Alcotest.fail "poison request cannot succeed");
          (* the same loop without the poison marker is not tainted *)
          let rc = expect_result "clean again" (request_ok c (compile_req ~id:"c" loop)) in
          (match rc.Proto.outcome with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "clean request after quarantine failed: %s"
                (Verify.Stage_error.to_string e))
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "daemon-sheds-at-the-door" (fun () ->
        let (), code =
          with_daemon ~queue_limit:0 @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          match request_ok c (compile_req ~id:"full" (Workload.Kernels.dot ~unroll:2)) with
          | Proto.Overload { id; retry_after_ms; _ } ->
              check Alcotest.string "id echoed" "full" id;
              check Alcotest.bool "retry quote" true
                (retry_after_ms >= Admission.retry_after_base_ms)
          | reply ->
              Alcotest.failf "limit 0 got %s" (Proto.status_of_reply reply)
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "bombardment-with-faults-answers-everything" (fun () ->
        (* the harness end-to-end, in process: 8 suite loops from 3
           concurrent clients with every service fault armed. Zero
           unanswered, zero protocol errors, metrics match a local
           recompute. *)
        let report, code =
          with_daemon ~cache:true @@ fun addr ->
          Serve.Bombard.run
            (Serve.Bombard.config ~clients:3 ~loops:8 ~seed:2026
               ~faults:Robust.Inject.all_service ~check:true addr)
        in
        check Alcotest.int "daemon survived and drained" 0 code;
        check Alcotest.int "every request answered" 0 report.Serve.Bombard.unanswered;
        check Alcotest.(list string) "no protocol errors" []
          report.Serve.Bombard.protocol_errors;
        check Alcotest.(list string) "serve agrees with local compile" []
          report.Serve.Bombard.mismatches;
        check Alcotest.int "all scored" 8
          (report.Serve.Bombard.ok + report.Serve.Bombard.errors
         + report.Serve.Bombard.timeouts);
        check Alcotest.bool "faults actually fired" true
          (List.exists (fun (_, n) -> n > 0) report.Serve.Bombard.faults_fired);
        check Alcotest.int "harness verdict" 0 (Serve.Bombard.exit_code report);
        (* the report is an rbp-bench/1 document the perf gate can parse *)
        match Core.Perfdiff.parse (Obs.Json.to_string (Serve.Bombard.to_json report)) with
        | Ok bench ->
            check Alcotest.int "bench carries the scored loops" 8
              bench.Core.Perfdiff.loops
        | Error e -> Alcotest.failf "perfdiff rejected the report: %s" e);
    slow_case "daemon-serves-latency-metrics-over-the-wire" (fun () ->
        let (), code =
          with_daemon ~cache:true @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          (* before any compile the document exists but the series are empty *)
          (match request_ok c Proto.Metrics with
          | Proto.Metrics_reply j -> (
              match Metrics.of_json j with
              | Ok m -> check Alcotest.int "empty at boot" 0 m.Metrics.total.Metrics.count
              | Error e -> Alcotest.failf "boot metrics: %s" e)
          | reply -> Alcotest.failf "metrics got %s" (Proto.status_of_reply reply));
          let loop = Workload.Kernels.daxpy ~unroll:2 in
          ignore (expect_result "miss" (request_ok c (compile_req ~id:"m1" loop)));
          ignore (expect_result "hit" (request_ok c (compile_req ~id:"m2" loop)));
          ignore
            (expect_result "bypass"
               (request_ok c (compile_req ~id:"m3" ~no_cache:true loop)));
          (match request_ok c Proto.Metrics with
          | Proto.Metrics_reply j -> (
              match Metrics.of_json j with
              | Error e -> Alcotest.failf "metrics did not parse: %s" e
              | Ok m ->
                  check Alcotest.int "every admitted compile recorded" 3
                    m.Metrics.total.Metrics.count;
                  check Alcotest.int "queue series matches" 3
                    m.Metrics.queue.Metrics.count;
                  check Alcotest.bool "quantiles populated" true
                    (m.Metrics.total.Metrics.p50 > 0.0
                    && m.Metrics.total.Metrics.p99 >= m.Metrics.total.Metrics.p50
                    && m.Metrics.total.Metrics.max >= m.Metrics.total.Metrics.p99);
                  check Alcotest.bool "real compiles feed a rung series" true
                    (List.exists (fun (_, s) -> s.Metrics.count > 0) m.Metrics.rungs);
                  check Alcotest.bool "rolling window saw the burst" true
                    (match List.assoc_opt "60s" m.Metrics.windows with
                    | Some w -> w.Metrics.results_per_s > 0.0
                    | None -> false))
          | reply -> Alcotest.failf "metrics got %s" (Proto.status_of_reply reply));
          (* the stats op is untouched by the new instrumentation: same
             counter names, no distribution keys leaking in *)
          match request_ok c Proto.Stats with
          | Proto.Stats_reply counters ->
              check Alcotest.bool "stats stays counters-only" true
                (List.for_all
                   (fun (name, _) ->
                     List.exists
                       (fun ctr -> Obs.Counter.name ctr = name)
                       Obs.Counter.all)
                   counters)
          | reply -> Alcotest.failf "stats got %s" (Proto.status_of_reply reply)
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "daemon-threads-trace-ids-end-to-end" (fun () ->
        let (), code =
          with_daemon ~trace_seed:0 @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let loop = Workload.Kernels.daxpy ~unroll:2 in
          (* a valid client-supplied correlator is echoed verbatim *)
          let r =
            expect_result "traced"
              (request_ok c (compile_req ~id:"a" ~trace_id:"client-chose.this-1" loop))
          in
          check Alcotest.bool "client id echoed" true
            (r.Proto.trace_id = Some "client-chose.this-1");
          check Alcotest.bool "no tree unless asked" true (r.Proto.trace = None);
          (* an invalid one is replaced, never propagated *)
          let r2 =
            expect_result "replaced"
              (request_ok c (compile_req ~id:"b" ~trace_id:"has spaces!" loop))
          in
          (match r2.Proto.trace_id with
          | Some t ->
              check Alcotest.bool "server-generated instead" true
                (t <> "has spaces!" && Obs.Trace_id.is_valid t
                && String.length t = 16)
          | None -> Alcotest.fail "daemon-built replies always carry a trace id");
          (* no id at all: the seeded stream provides one *)
          let r3 = expect_result "generated" (request_ok c (compile_req ~id:"c" loop)) in
          check Alcotest.bool "generated id present" true
            (match r3.Proto.trace_id with
            | Some t -> Obs.Trace_id.is_valid t && String.length t = 16
            | None -> false);
          (* trace:true rides the span tree in the reply, and it parses *)
          let r4 =
            expect_result "span tree"
              (request_ok c (compile_req ~id:"d" ~trace_id:"tree-1" ~trace:true loop))
          in
          match r4.Proto.trace with
          | None -> Alcotest.fail "requested tree missing"
          | Some j -> (
              match Obs.Export.trace_spans_of_json j with
              | Error e -> Alcotest.failf "tree did not parse: %s" e
              | Ok spans ->
                  check Alcotest.bool "at least the ladder span" true (spans <> []))
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "daemon-flight-recorder-recovers-anomalies" (fun () ->
        let (), code =
          with_daemon ~max_retries:0 @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let loop = Workload.Kernels.hydro ~unroll:2 in
          let rt =
            expect_result "deadline"
              (request_ok c
                 (compile_req ~id:"t" ~trace_id:"the-timeout" ~deadline_ms:0.01 loop))
          in
          check Alcotest.string "timed out" "timeout"
            (Proto.status_of_reply (Proto.Result rt));
          let rq =
            expect_result "poison"
              (request_ok c
                 (compile_req ~id:"p" ~trace_id:"the-poison" ~fault:"crash-worker" loop))
          in
          (match rq.Proto.outcome with
          | Error e ->
              check Alcotest.string "quarantined" Proto.code_quarantined
                e.Verify.Stage_error.code
          | Ok _ -> Alcotest.fail "poison request cannot succeed");
          ignore (expect_result "healthy" (request_ok c (compile_req ~id:"h" loop)));
          (* the anomaly ring has both, by trace id, with latencies *)
          (match request_ok c (Proto.Flight { id = None; anomalies = true }) with
          | Proto.Flight_reply doc -> (
              match Flight.entries_of_json doc with
              | Error e -> Alcotest.failf "flight doc: %s" e
              | Ok (reqs, anoms) ->
                  check Alcotest.int "anomalies only" 0 (List.length reqs);
                  let find tid =
                    match List.find_opt (fun e -> e.Flight.trace_id = tid) anoms with
                    | Some e -> e
                    | None -> Alcotest.failf "anomaly %S not retained" tid
                  in
                  let t = find "the-timeout" in
                  check Alcotest.bool "timeout tagged" true
                    (t.Flight.anomaly = Some "timeout");
                  check Alcotest.bool "latency accounted" true (t.Flight.total_ms >= 0.0);
                  let q = find "the-poison" in
                  check Alcotest.bool "quarantine tagged" true
                    (q.Flight.anomaly = Some "quarantine"))
          | reply -> Alcotest.failf "flight got %s" (Proto.status_of_reply reply));
          (* the healthy compile shows up in the full dump's request ring *)
          match request_ok c (Proto.Flight { id = None; anomalies = false }) with
          | Proto.Flight_reply doc -> (
              match Flight.entries_of_json doc with
              | Error e -> Alcotest.failf "flight doc: %s" e
              | Ok (reqs, _) ->
                  check Alcotest.bool "completed requests retained" true
                    (List.exists (fun e -> e.Flight.id = "h") reqs))
          | reply -> Alcotest.failf "flight got %s" (Proto.status_of_reply reply)
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "every-answer-is-recorded-before-it-is-written" (fun () ->
        (* The daemon of [rbp serve --deterministic]: a frozen request
           clock (so a 0 ms deadline has always expired by the time a
           worker pops the job), seed-0 trace ids, one worker; with no
           retries the poison request is quarantined on its first crash.
           After each reply, the stats and flight ops must already
           account for that request. *)
        let (), code =
          with_daemon ~workers:1 ~cache:true ~max_retries:0
            ~clock:(Obs.Clock.frozen 0.0) ~trace_seed:0
          @@ fun addr ->
          let c = connect_ok addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let loop = Workload.Kernels.daxpy ~unroll:2 in
          let broken =
            Proto.Compile
              { Proto.id = "parse"; ir = "loop \"x\" { this is not ir }";
                clusters = 4; model = Mach.Machine.Embedded;
                deadline_ms = None; no_cache = false; fault = None;
                trace_id = Some "the-parse"; trace = false }
          in
          let requests =
            [
              ("the-ok", "ok", compile_req ~id:"ok" ~trace_id:"the-ok" loop);
              ("the-hit", "ok", compile_req ~id:"hit" ~trace_id:"the-hit" loop);
              ("the-parse", "error", broken);
              ( "the-expired", "timeout",
                compile_req ~id:"expired" ~trace_id:"the-expired" ~deadline_ms:0.0
                  (Workload.Kernels.hydro ~unroll:2) );
              ( "the-poison", "error",
                compile_req ~id:"poison" ~trace_id:"the-poison" ~fault:"crash-worker" loop );
            ]
          in
          let counter counters name = Option.value ~default:0 (List.assoc_opt name counters) in
          List.iteri
            (fun i (trace_id, status, req) ->
              let r = expect_result trace_id (request_ok c req) in
              check Alcotest.string (trace_id ^ " status") status
                (Proto.status_of_reply (Proto.Result r));
              let counters =
                match request_ok c Proto.Stats with
                | Proto.Stats_reply counters -> counters
                | reply -> Alcotest.failf "stats got %s" (Proto.status_of_reply reply)
              in
              let ring =
                match request_ok c (Proto.Flight { id = None; anomalies = false }) with
                | Proto.Flight_reply doc -> (
                    match Flight.entries_of_json doc with
                    | Ok (reqs, _) -> reqs
                    | Error e -> Alcotest.failf "flight doc: %s" e)
                | reply -> Alcotest.failf "flight got %s" (Proto.status_of_reply reply)
              in
              check Alcotest.int (trace_id ^ ": ring holds every answer") (i + 1)
                (List.length ring);
              check Alcotest.bool (trace_id ^ ": ring holds this answer") true
                (List.exists (fun e -> e.Flight.trace_id = trace_id) ring);
              check Alcotest.int
                (trace_id ^ ": completed + failed + timeouts = ring entries")
                (List.length ring)
                (counter counters "serve.completed" + counter counters "serve.failed"
                + counter counters "serve.timeouts");
              check Alcotest.int (trace_id ^ ": cache hits = ring hits")
                (List.length (List.filter (fun e -> e.Flight.cache = "hit") ring))
                (counter counters "serve.cache_hits");
              (* the first compile's trace counters reached the table too *)
              check Alcotest.bool (trace_id ^ ": per-request counters absorbed") true
                (counter counters "sched.placements" > 0
                && counter counters "greedy.decisions" > 0
                && counter counters "ladder.rung_entered" > 0))
            requests
        in
        check Alcotest.int "clean shutdown" 0 code);
    slow_case "bombard-trace-sampling-checks-the-returned-trees" (fun () ->
        let report, code =
          with_daemon ~cache:true @@ fun addr ->
          Serve.Bombard.run
            (Serve.Bombard.config ~clients:2 ~loops:6 ~seed:7 ~check:true
               ~trace_sample:2 addr)
        in
        check Alcotest.int "daemon survived" 0 code;
        check Alcotest.int "every request answered" 0 report.Serve.Bombard.unanswered;
        check Alcotest.(list string) "no protocol errors" []
          report.Serve.Bombard.protocol_errors;
        check Alcotest.(list string) "trees parsed, ids echoed, rungs agreed" []
          report.Serve.Bombard.mismatches;
        check Alcotest.bool "sampling actually traced" true
          (report.Serve.Bombard.traced >= 3);
        check Alcotest.int "harness verdict" 0 (Serve.Bombard.exit_code report));
  ]

let suite =
  [
    ("serve.proto", proto_tests);
    ("serve.admission", admission_tests);
    ("serve.wire", wire_tests);
    ("serve.stats", stats_tests);
    ("serve.keys", key_tests);
    ("serve.flight", flight_tests);
    ("serve.metrics", metrics_tests);
    ("serve.daemon", daemon_tests);
  ]
