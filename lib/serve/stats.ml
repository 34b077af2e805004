let schema = "rbp-metrics/1"

(* The window lookbacks the metrics reply answers. One 60-cell ring of
   1 s slices serves both. *)
let lookbacks_s = [ 10.0; 60.0 ]

type t = {
  lock : Mutex.t;
  clock : unit -> float;
  gc_stat : unit -> Gc.stat;
  started : float;
  cells : (Obs.Counter.t, int ref) Hashtbl.t;
  queue_ms : Obs.Histogram.t;
  compile_ms : Obs.Histogram.t;
  total_ms : Obs.Histogram.t;
  rungs : (string, Obs.Histogram.t) Hashtbl.t;
  w_admitted : Obs.Window.t;
  w_shed : Obs.Window.t;
  w_results : Obs.Window.t;
  w_hits : Obs.Window.t;
}

let make ?(clock = fun () -> 0.0) ?(gc_stat = Gc.quick_stat) () =
  let w () = Obs.Window.make ~clock () in
  {
    lock = Mutex.create ();
    clock;
    gc_stat;
    started = clock ();
    cells = Hashtbl.create 32;
    queue_ms = Obs.Histogram.make ();
    compile_ms = Obs.Histogram.make ();
    total_ms = Obs.Histogram.make ();
    rungs = Hashtbl.create 8;
    w_admitted = w ();
    w_shed = w ();
    w_results = w ();
    w_hits = w ();
  }

(* With [t.lock] held. *)
let bump_locked t c n =
  if n <> 0 then
    match Hashtbl.find_opt t.cells c with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.cells c (ref n)

let bump t c n =
  Mutex.lock t.lock;
  bump_locked t c n;
  Mutex.unlock t.lock

let get t c =
  Mutex.lock t.lock;
  let v = match Hashtbl.find_opt t.cells c with Some r -> !r | None -> 0 in
  Mutex.unlock t.lock;
  v

let absorb t tr =
  Mutex.lock t.lock;
  List.iter (fun c -> bump_locked t c (Obs.Trace.counter_total tr c)) Obs.Counter.all;
  Mutex.unlock t.lock

(* With [t.lock] held. *)
let snapshot_locked t =
  let cells = Hashtbl.fold (fun c r acc -> (Obs.Counter.name c, !r) :: acc) t.cells [] in
  List.sort compare cells

let snapshot t =
  Mutex.lock t.lock;
  let cells = snapshot_locked t in
  Mutex.unlock t.lock;
  cells

(* ------------------------------------------------------------------ *)
(* Metrics: histograms + rolling windows                               *)

let note_admitted t =
  Mutex.lock t.lock;
  bump_locked t Obs.Counter.Serve_admitted 1;
  Obs.Window.add t.w_admitted;
  Mutex.unlock t.lock

let note_shed t =
  Mutex.lock t.lock;
  bump_locked t Obs.Counter.Serve_shed 1;
  Obs.Window.add t.w_shed;
  Mutex.unlock t.lock

let note_result t (r : Proto.result_reply) =
  let { Proto.queue_ms; compile_ms; total_ms } = r.Proto.timing in
  let cache_hit = r.Proto.cache = Proto.Hit in
  Mutex.lock t.lock;
  (match Proto.status_of_reply (Proto.Result r) with
  | "ok" ->
      bump_locked t Obs.Counter.Serve_completed 1;
      if cache_hit then bump_locked t Obs.Counter.Serve_cache_hits 1
  | "timeout" -> bump_locked t Obs.Counter.Serve_timeouts 1
  | _ -> bump_locked t Obs.Counter.Serve_failed 1);
  Obs.Histogram.record t.queue_ms queue_ms;
  Obs.Histogram.record t.compile_ms compile_ms;
  Obs.Histogram.record t.total_ms total_ms;
  Obs.Window.add t.w_results;
  if cache_hit then Obs.Window.add t.w_hits;
  (* Per-rung compile time only for code actually compiled on this
     request: a cache hit's compile_ms is ~0 and would dilute the rung
     it was originally produced by. *)
  (match r.Proto.rung with
  | Some rung when not cache_hit ->
      let h =
        match Hashtbl.find_opt t.rungs rung with
        | Some h -> h
        | None ->
            let h = Obs.Histogram.make () in
            Hashtbl.add t.rungs rung h;
            h
      in
      Obs.Histogram.record h compile_ms
  | _ -> ());
  Mutex.unlock t.lock

let window_json_locked t over_s =
  let results = Obs.Window.total ~over_s t.w_results in
  let hits = Obs.Window.total ~over_s t.w_hits in
  let ratio =
    if results = 0 then 0.0 else float_of_int hits /. float_of_int results
  in
  Obs.Json.Obj
    [
      ("requests_per_s", Obs.Json.Num (Obs.Window.rate ~over_s t.w_admitted));
      ("overloads_per_s", Obs.Json.Num (Obs.Window.rate ~over_s t.w_shed));
      ("results_per_s", Obs.Json.Num (Obs.Window.rate ~over_s t.w_results));
      ("cache_hit_ratio", Obs.Json.Num ratio);
    ]

(* Memory telemetry off [Gc.quick_stat] (no heap walk): enough to spot
   a leaking or thrashing daemon from the metrics op alone. Injectable
   so fake-clock tests can pin the whole document. *)
let gc_json_locked t =
  let s = t.gc_stat () in
  let num x = Obs.Json.Num x in
  let int_num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("live_words", int_num s.Gc.live_words);
      ("heap_words", int_num s.Gc.heap_words);
      ("minor_collections", int_num s.Gc.minor_collections);
      ("major_collections", int_num s.Gc.major_collections);
      ("compactions", int_num s.Gc.compactions);
      ("minor_words", num s.Gc.minor_words);
    ]

let metrics_json t =
  Mutex.lock t.lock;
  let now = t.clock () in
  let counters =
    Obs.Json.Obj
      (List.map
         (fun (n, v) -> (n, Obs.Json.Num (float_of_int v)))
         (snapshot_locked t))
  in
  let rungs =
    Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.rungs []
    |> List.sort compare
    |> List.map (fun (name, h) -> (name, Obs.Histogram.summary_json h))
  in
  let windows =
    List.map
      (fun over_s ->
        (Printf.sprintf "%.0fs" over_s, window_json_locked t over_s))
      lookbacks_s
  in
  let j =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str schema);
        ("uptime_s", Obs.Json.Num (now -. t.started));
        ("counters", counters);
        ( "latency",
          Obs.Json.Obj
            [
              ("queue_ms", Obs.Histogram.summary_json t.queue_ms);
              ("compile_ms", Obs.Histogram.summary_json t.compile_ms);
              ("total_ms", Obs.Histogram.summary_json t.total_ms);
            ] );
        ("rungs", Obs.Json.Obj rungs);
        ("windows", Obs.Json.Obj windows);
        ("gc", gc_json_locked t);
      ]
  in
  Mutex.unlock t.lock;
  j
