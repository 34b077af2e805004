open Testlib

(* The instrumentation layer (lib/obs): span-tree construction, counter
   and gauge aggregation, fake-clock determinism, the exporter
   round-trip contract, and the ?obs probes threaded through the
   pipeline libraries. *)

let fake_ctx () = Obs.Trace.make ~clock:(Obs.Clock.fake ()) ()
let count_events p t = List.length (List.filter p (Obs.Trace.events t))

let clock_tests =
  [
    case "fake-clock-steps" (fun () ->
        let c = Obs.Clock.fake () in
        check (Alcotest.float 1e-9) "first read" 0.0 (c ());
        check (Alcotest.float 1e-9) "second read" 0.001 (c ());
        check (Alcotest.float 1e-9) "third read" 0.002 (c ()));
    case "fake-clock-custom" (fun () ->
        let c = Obs.Clock.fake ~start:5.0 ~step:0.5 () in
        check (Alcotest.float 1e-9) "start" 5.0 (c ());
        check (Alcotest.float 1e-9) "stepped" 5.5 (c ()));
    case "frozen-clock" (fun () ->
        let c = Obs.Clock.frozen 42.0 in
        check (Alcotest.float 1e-9) "frozen" 42.0 (c ());
        check (Alcotest.float 1e-9) "still frozen" 42.0 (c ()));
  ]

let span_tests =
  [
    case "none-context-is-identity" (fun () ->
        let r = Obs.Trace.span None "x" (fun () -> 41 + 1) in
        check Alcotest.int "result passes through" 42 r);
    case "span-nesting" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.span obs "outer" (fun () ->
            Obs.Trace.span obs "a" (fun () -> ());
            Obs.Trace.span obs "b" (fun () ->
                Obs.Trace.span obs "b.1" (fun () -> ())));
        (match Obs.Trace.roots t with
        | [ outer ] ->
            check Alcotest.string "root name" "outer" outer.Obs.Trace.name;
            check (Alcotest.list Alcotest.string) "children in order" [ "a"; "b" ]
              (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
                 outer.Obs.Trace.children);
            (match outer.Obs.Trace.children with
            | [ _; b ] ->
                check (Alcotest.list Alcotest.string) "grandchild" [ "b.1" ]
                  (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
                     b.Obs.Trace.children)
            | _ -> Alcotest.fail "expected two children")
        | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
        (* pre-order walk covers the whole forest with depths *)
        let seen = ref [] in
        Obs.Trace.iter_spans
          (fun ~depth s -> seen := (depth, s.Obs.Trace.name) :: !seen)
          t;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
          "pre-order with depth"
          [ (0, "outer"); (1, "a"); (1, "b"); (2, "b.1") ]
          (List.rev !seen));
    case "span-closes-on-raise" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        (try Obs.Trace.span obs "boom" (fun () -> failwith "x") with Failure _ -> ());
        match Obs.Trace.roots t with
        | [ s ] ->
            check Alcotest.bool "closed (duration > 0)" true (Obs.Trace.duration s > 0.0)
        | _ -> Alcotest.fail "span lost on raise");
    case "fake-clock-durations-deterministic" (fun () ->
        (* Every span costs exactly two clock reads: 1ms under the
           default fake step, regardless of how long the body runs. *)
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.span obs "p" (fun () ->
            Obs.Trace.span obs "q" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))));
        let p = List.hd (Obs.Trace.roots t) in
        let q = List.hd p.Obs.Trace.children in
        check (Alcotest.float 1e-9) "leaf duration" 0.001 (Obs.Trace.duration q);
        check (Alcotest.float 1e-9) "parent duration" 0.003 (Obs.Trace.duration p));
    case "add-attr-lands-on-innermost" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.span obs "s" (fun () -> Obs.Trace.add_attr obs "k" "v");
        let s = List.hd (Obs.Trace.roots t) in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "attr recorded" [ ("k", "v") ] s.Obs.Trace.attrs);
    case "add-attr-outside-span-ignored" (fun () ->
        let t = fake_ctx () in
        Obs.Trace.add_attr (Some t) "k" "v";
        check Alcotest.int "no roots" 0 (List.length (Obs.Trace.roots t)));
  ]

let counter_tests =
  [
    case "incr-aggregates" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.incr obs Obs.Counter.Sched_placements 2;
        Obs.Trace.incr obs Obs.Counter.Sched_placements 3;
        check Alcotest.int "summed" 5
          (Obs.Trace.counter_value t Obs.Counter.Sched_placements));
    case "labelled-cells-are-distinct" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.incr obs ~label:"0->1" Obs.Counter.Copies_inserted 2;
        Obs.Trace.incr obs ~label:"1->0" Obs.Counter.Copies_inserted 1;
        check Alcotest.int "cell 0->1" 2
          (Obs.Trace.counter_value t ~label:"0->1" Obs.Counter.Copies_inserted);
        check Alcotest.int "cell 1->0" 1
          (Obs.Trace.counter_value t ~label:"1->0" Obs.Counter.Copies_inserted);
        check Alcotest.int "total over labels" 3
          (Obs.Trace.counter_total t Obs.Counter.Copies_inserted));
    case "untouched-counter-is-zero" (fun () ->
        let t = fake_ctx () in
        check Alcotest.int "zero" 0 (Obs.Trace.counter_value t Obs.Counter.Sched_evictions));
    case "gauge-keeps-last-and-max" (fun () ->
        let t = fake_ctx () in
        let obs = Some t in
        Obs.Trace.set_gauge obs Obs.Counter.Clustered_mii 4;
        Obs.Trace.set_gauge obs Obs.Counter.Clustered_mii 9;
        Obs.Trace.set_gauge obs Obs.Counter.Clustered_mii 2;
        match Obs.Trace.gauges t with
        | [ (name, None, last, mx) ] ->
            check Alcotest.string "name" "sched.clustered_mii" name;
            check Alcotest.int "last" 2 last;
            check Alcotest.int "max" 9 mx
        | _ -> Alcotest.fail "expected one gauge cell");
    case "events-tally-their-derived-cells" (fun () ->
        (* Each decision event feeds its counter / gauge cells through
           emit; events no counter summarises touch no cell. *)
        let t = fake_ctx () in
        let obs = Some t in
        let place ?(pinned = false) ?(ties = []) node =
          Obs.Trace.emit obs
            (Obs.Events.Greedy_place
               { node; bank = 0; benefit = 0.0; benefits = []; ties; pinned })
        in
        Obs.Trace.emit obs
          (Obs.Events.Greedy_penalty { penalty = 1.0; mean_edge = 1.0; nodes = 3; banks = 2 });
        Obs.Trace.emit obs
          (Obs.Events.Rcg_edge { a = "a"; b = "b"; term = Obs.Events.Attract; w = 1.0 });
        check Alcotest.int "untallied events leave no cell" 0
          (List.length (Obs.Trace.counters t) + List.length (Obs.Trace.gauges t));
        place "a";
        place ~ties:[ 0; 1 ] "b";
        place ~pinned:true "c";
        Obs.Trace.emit obs
          (Obs.Events.Sched_evict { op = 1; by = 2; cycle = 0; reason = "conflict" });
        Obs.Trace.emit obs (Obs.Events.Ii_escalate { ii = 1; cause = "resource" });
        Obs.Trace.emit obs (Obs.Events.Ii_escalate { ii = 2; cause = "budget" });
        Obs.Trace.emit obs
          (Obs.Events.Copy_route
             { reg = "a"; copy = "a@c1"; src_bank = 0; dst_bank = 1; reaching = "carried" });
        Obs.Trace.emit obs (Obs.Events.Spill { reg = "b"; bank = 1; round = 1 });
        Obs.Trace.emit obs
          (Obs.Events.Alloc_pressure
             { bank = 1; round = 1; pressure = 2; conflict_nodes = 5; conflict_edges = 4 });
        check
          Alcotest.(list (triple string (option string) int))
          "counter cells"
          [
            ("alloc.spilled", None, 1); ("copies.inserted", Some "0->1", 1);
            ("greedy.decisions", None, 2); ("greedy.pinned", None, 1);
            ("greedy.tie_breaks", None, 1); ("sched.budget_exhausted", None, 1);
            ("sched.evictions", None, 1); ("sched.ii_escalations", None, 2);
          ]
          (Obs.Trace.counters t);
        check Alcotest.bool "conflict gauges labelled by bank" true
          (Obs.Trace.gauges t
          = [ ("alloc.conflict_edges", Some "bank1", 4, 4);
              ("alloc.conflict_nodes", Some "bank1", 5, 5) ]));
    case "counter-names-unique" (fun () ->
        let names = List.map Obs.Counter.name Obs.Counter.all in
        check Alcotest.int "no duplicates" (List.length names)
          (List.length (List.sort_uniq compare names)));
  ]

let json_tests =
  [
    case "round-trip-values" (fun () ->
        let v =
          Obs.Json.Obj
            [
              ("s", Obs.Json.Str "a\"b\\c\nd");
              ("n", Obs.Json.Num 0.001);
              ("i", Obs.Json.Num 42.0);
              ("b", Obs.Json.Bool true);
              ("z", Obs.Json.Null);
              ("l", Obs.Json.List [ Obs.Json.Num 1.0; Obs.Json.Str "x" ]);
            ]
        in
        match Obs.Json.of_string (Obs.Json.to_string v) with
        | Ok v' -> check Alcotest.bool "round-trips" true (v = v')
        | Error e -> Alcotest.failf "parse failed: %s" e);
    case "parse-rejects-garbage" (fun () ->
        check Alcotest.bool "trailing garbage" true
          (Result.is_error (Obs.Json.of_string "{} x"));
        check Alcotest.bool "unterminated" true
          (Result.is_error (Obs.Json.of_string "{\"a\": ")));
    case "control-char-escapes" (fun () ->
        (* every byte below 0x20 must leave the encoder escaped: the
           short forms for the common ones, \u00XX for the rest *)
        check Alcotest.string "backspace and formfeed shortforms" "\"\\b\\f\""
          (Obs.Json.to_string (Obs.Json.Str "\b\012"));
        check Alcotest.string "other controls as \\u" "\"\\u0000\\u001f\""
          (Obs.Json.to_string (Obs.Json.Str "\x00\x1f"));
        String.iter
          (fun c ->
            let s = Obs.Json.to_string (Obs.Json.Str (String.make 1 c)) in
            String.iter
              (fun c' ->
                check Alcotest.bool "no raw control byte in output" true
                  (Char.code c' >= 0x20))
              s)
          (String.init 0x20 Char.chr));
    case "unicode-escape-decodes-to-utf8" (fun () ->
        check Alcotest.bool "BMP escape" true
          (Obs.Json.of_string "\"\\u2713\"" = Ok (Obs.Json.Str "\xe2\x9c\x93"));
        check Alcotest.bool "latin-1 escape" true
          (Obs.Json.of_string "\"\\u00e9\"" = Ok (Obs.Json.Str "\xc3\xa9"));
        check Alcotest.bool "ascii escape" true
          (Obs.Json.of_string "\"\\u0041\"" = Ok (Obs.Json.Str "A")));
  ]

(* Strings stressing the encoder's escape table: control bytes, the
   JSON metacharacters, plain ASCII and multi-byte UTF-8 sequences. *)
let gen_tricky_string =
  let open QCheck2.Gen in
  let token =
    oneof
      [
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
        oneofl [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012" ];
        map (String.make 1) printable;
        oneofl [ "\xc3\xa9" (* é *); "\xe2\x9c\x93" (* ✓ *); "\xf0\x9f\x90\xab" (* 🐫 *) ];
      ]
  in
  map (String.concat "") (list_size (int_range 0 24) token)

let json_property_tests =
  [
    qcheck ~count:500 "string-round-trips" gen_tricky_string (fun s ->
        Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Str s)) = Ok (Obs.Json.Str s));
    qcheck ~count:500 "encoded-string-has-no-raw-controls" gen_tricky_string (fun s ->
        String.for_all
          (fun c -> Char.code c >= 0x20)
          (Obs.Json.to_string (Obs.Json.Str s)));
    qcheck ~count:200 "nested-values-round-trip"
      QCheck2.Gen.(pair gen_tricky_string (pair gen_tricky_string (int_range 0 1000)))
      (fun (k, (s, i)) ->
        let v =
          Obs.Json.Obj
            [
              (k, Obs.Json.Str s);
              ("l", Obs.Json.List [ Obs.Json.Str k; Obs.Json.Num (float_of_int i) ]);
            ]
        in
        Obs.Json.of_string (Obs.Json.to_string v) = Ok v);
  ]

let jstr k v = Option.bind (Obs.Json.member k v) Obs.Json.to_str
let jnum k v = Option.bind (Obs.Json.member k v) Obs.Json.to_num

let export_tests =
  let traced_pipeline clock =
    let t = Obs.Trace.make ~clock () in
    let loop = Workload.Kernels.daxpy ~unroll:2 in
    (match Partition.Driver.pipeline ~obs:t ~machine:m2x8e loop with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "pipeline failed: %s" (Verify.Stage_error.to_string e));
    t
  in
  [
    case "tree-deterministic-under-fake-clock" (fun () ->
        let a = Obs.Export.tree (traced_pipeline (Obs.Clock.fake ())) in
        let b = Obs.Export.tree (traced_pipeline (Obs.Clock.fake ())) in
        check Alcotest.string "byte-identical" a b;
        check Alcotest.bool "has pipeline root" true (contains a "pipeline loop=daxpy-u2");
        check Alcotest.bool "reports counters" true (contains a "sched.placements"));
    case "jsonl-round-trips-through-parser" (fun () ->
        let t = traced_pipeline (Obs.Clock.fake ()) in
        match Obs.Export.parse_jsonl (Obs.Export.jsonl t) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok events ->
            check Alcotest.bool "non-empty" true (events <> []);
            let spans = List.filter (fun v -> jstr "type" v = Some "span") events in
            let counters = List.filter (fun v -> jstr "type" v = Some "counter") events in
            check Alcotest.bool "has spans" true (spans <> []);
            check Alcotest.bool "has counters" true (counters <> []);
            (* every span event carries name/depth/start/dur *)
            List.iter
              (fun v ->
                check Alcotest.bool "span has name" true (jstr "name" v <> None);
                check Alcotest.bool "span has dur" true (jnum "dur" v <> None))
              spans);
    case "chrome-trace-is-valid-json" (fun () ->
        let t = traced_pipeline (Obs.Clock.fake ()) in
        match Obs.Json.of_string (Obs.Export.chrome t) with
        | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
        | Ok doc -> (
            check Alcotest.bool "displayTimeUnit" true
              (jstr "displayTimeUnit" doc = Some "ms");
            match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
            | None -> Alcotest.fail "no traceEvents list"
            | Some events ->
                check Alcotest.bool "has events" true (events <> []);
                List.iter
                  (fun e ->
                    let ph = jstr "ph" e in
                    check Alcotest.bool "phase is X or C" true
                      (ph = Some "X" || ph = Some "C");
                    check Alcotest.bool "has ts" true (jnum "ts" e <> None))
                  events));
  ]

let probe_tests =
  [
    case "pipeline-result-unchanged-by-obs" (fun () ->
        (* The whole point of the one-branch probes: instrumented and
           uninstrumented runs compute identical results. *)
        let loop = Workload.Kernels.hydro ~unroll:2 in
        let t = fake_ctx () in
        match
          ( Partition.Driver.pipeline ~machine:m4x4e loop,
            Partition.Driver.pipeline ~obs:t ~machine:m4x4e loop )
        with
        | Ok a, Ok b ->
            check Alcotest.int "same II"
              a.Partition.Driver.clustered.Sched.Modulo.ii
              b.Partition.Driver.clustered.Sched.Modulo.ii;
            check Alcotest.int "same copies" a.Partition.Driver.n_copies
              b.Partition.Driver.n_copies;
            check Alcotest.bool "same assignment" true
              (Ir.Vreg.Map.equal ( = ) a.Partition.Driver.assignment
                 b.Partition.Driver.assignment)
        | _ -> Alcotest.fail "pipeline failed");
    case "scheduler-effort-stats-populated" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:4 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            check Alcotest.bool "placements counted" true
              (o.Sched.Modulo.placements_tried >= Ir.Loop.size loop);
            check Alcotest.bool "at least one II tried" true (o.Sched.Modulo.iis_tried >= 1);
            check Alcotest.bool "evictions non-negative" true (o.Sched.Modulo.evictions >= 0));
    case "swing-escalation-emits-its-cause" (fun () ->
        (* Started below the accumulator recurrence's bound, Swing must
           abandon II 1 and say why, in Modulo's cause vocabulary. *)
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.dot ~unroll:1) in
        let t = fake_ctx () in
        match Sched.Swing.schedule ~obs:t ~machine:ideal16 ~mii:1 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            let causes =
              List.filter_map
                (function Obs.Events.Ii_escalate { cause; _ } -> Some cause | _ -> None)
                (Obs.Trace.events t)
            in
            check Alcotest.bool "escalated" true (o.Sched.Modulo.ii > 1);
            check Alcotest.int "one event per abandoned II" (o.Sched.Modulo.iis_tried - 1)
              (List.length causes);
            List.iter
              (fun c ->
                check Alcotest.bool (Printf.sprintf "documented cause %S" c) true
                  (List.mem c [ "rec_mii"; "self_edge"; "resource" ]))
              causes;
            check Alcotest.int "escalations tallied" (List.length causes)
              (Obs.Trace.counter_total t Obs.Counter.Sched_ii_escalations));
    case "swing-effort-stats-populated" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Swing.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            check Alcotest.bool "placements counted" true
              (o.Sched.Modulo.placements_tried >= Ir.Loop.size loop);
            check Alcotest.int "swing never evicts" 0 o.Sched.Modulo.evictions;
            check Alcotest.int "swing has no budget" 0 o.Sched.Modulo.budget_exhausted);
    case "pipeline-trace-counts-match-result" (fun () ->
        let loop = Workload.Kernels.hydro ~unroll:2 in
        let t = fake_ctx () in
        match Partition.Driver.pipeline ~obs:t ~machine:m4x4e loop with
        | Error e -> Alcotest.failf "pipeline: %s" (Verify.Stage_error.to_string e)
        | Ok r ->
            check Alcotest.int "copies counter matches result"
              r.Partition.Driver.n_copies
              (Obs.Trace.counter_total t Obs.Counter.Copies_inserted);
            check Alcotest.int "one copies.route event per inserted copy"
              r.Partition.Driver.n_copies
              (count_events (function Obs.Events.Copy_route _ -> true | _ -> false) t);
            check Alcotest.int "one greedy.penalty preamble" 1
              (count_events (function Obs.Events.Greedy_penalty _ -> true | _ -> false) t);
            check Alcotest.bool "greedy decisions counted" true
              (Obs.Trace.counter_value t Obs.Counter.Greedy_decisions > 0);
            check Alcotest.bool "placements counted" true
              (Obs.Trace.counter_value t Obs.Counter.Sched_placements > 0));
    case "alloc-gauges-and-rounds" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        let t = fake_ctx () in
        match Partition.Driver.pipeline ~machine:m2x8e loop with
        | Error e -> Alcotest.failf "pipeline: %s" (Verify.Stage_error.to_string e)
        | Ok r -> (
            match
              Regalloc.Alloc.allocate_loop ~obs:t ~machine:m2x8e
                ~assignment:r.Partition.Driver.assignment r.Partition.Driver.rewritten
            with
            | Error e -> Alcotest.failf "alloc: %s" (Verify.Stage_error.to_string e)
            | Ok a ->
                check Alcotest.int "rounds counter" a.Regalloc.Alloc.rounds
                  (Obs.Trace.counter_value t Obs.Counter.Alloc_rounds);
                check Alcotest.bool "bank0 conflict-node gauge set" true
                  (List.exists
                     (fun (name, label, _, _) ->
                       name = "alloc.conflict_nodes" && label = Some "bank0")
                     (Obs.Trace.gauges t));
                check Alcotest.bool "pressure reported for some bank" true
                  (count_events
                     (function Obs.Events.Alloc_pressure _ -> true | _ -> false)
                     t
                  >= 1)));
    case "ladder-rung-counters" (fun () ->
        let t = fake_ctx () in
        match Robust.Driver.run ~obs:t ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2) with
        | Error e -> Alcotest.failf "ladder: %s" (Verify.Stage_error.to_string e)
        | Ok r ->
            let rung = Robust.Driver.rung_name r.Robust.Driver.rung in
            check Alcotest.int "successful rung entered once" 1
              (Obs.Trace.counter_value t ~label:rung Obs.Counter.Ladder_rung_entered);
            check Alcotest.int "successful rung never failed" 0
              (Obs.Trace.counter_value t ~label:rung Obs.Counter.Ladder_rung_failed));
  ]

let event_tests =
  let traced loop machine =
    let t = fake_ctx () in
    match Partition.Driver.pipeline ~obs:t ~machine loop with
    | Ok r -> (t, r)
    | Error e -> Alcotest.failf "pipeline: %s" (Verify.Stage_error.to_string e)
  in
  [
    case "event-count-matches-stream" (fun () ->
        let t, _ = traced (Workload.Kernels.daxpy ~unroll:2) m4x4e in
        check Alcotest.int "event_count = |events|"
          (List.length (Obs.Trace.events t))
          (Obs.Trace.event_count t);
        check Alcotest.bool "stream non-empty" true (Obs.Trace.event_count t > 0));
    case "jsonl-carries-every-event" (fun () ->
        let t, _ = traced (Workload.Kernels.daxpy ~unroll:2) m4x4e in
        match Obs.Export.parse_jsonl (Obs.Export.jsonl t) with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok lines ->
            let events = List.filter (fun v -> jstr "type" v = Some "event") lines in
            check Alcotest.int "one jsonl line per event" (Obs.Trace.event_count t)
              (List.length events);
            List.iter
              (fun v ->
                check Alcotest.bool "event line has a name" true (jstr "name" v <> None))
              events);
    case "event-json-round-trips" (fun () ->
        let t, _ = traced (Workload.Kernels.hydro ~unroll:2) m8x2e in
        Obs.Trace.iter_events
          (fun e ->
            let j = Obs.Events.to_json e in
            match Obs.Json.of_string (Obs.Json.to_string j) with
            | Ok j' -> check Alcotest.bool "event survives print/parse" true (j = j')
            | Error err -> Alcotest.failf "event json: %s" err)
          t);
    case "no-obs-emits-nothing" (fun () ->
        (* emit through None must be a no-op, not an error *)
        Obs.Trace.emit None (Obs.Events.Ii_escalate { ii = 3; cause = "resource" });
        let t = fake_ctx () in
        check Alcotest.int "fresh context has no events" 0 (Obs.Trace.event_count t));
  ]

let histogram_tests =
  let exact = Alcotest.float 1e-9 in
  [
    case "empty-histogram-is-zero" (fun () ->
        let h = Obs.Histogram.make () in
        check Alcotest.bool "empty" true (Obs.Histogram.is_empty h);
        check Alcotest.int "count" 0 (Obs.Histogram.count h);
        check exact "p50" 0.0 (Obs.Histogram.p50 h);
        check exact "max" 0.0 (Obs.Histogram.max_value h));
    case "count-sum-min-max-are-exact" (fun () ->
        let h = Obs.Histogram.make () in
        List.iter (Obs.Histogram.record h) [ 3.0; 0.25; 120.0; 0.25; 7.5 ];
        check Alcotest.int "count" 5 (Obs.Histogram.count h);
        check exact "sum" 131.0 (Obs.Histogram.sum h);
        check exact "mean" 26.2 (Obs.Histogram.mean h);
        check exact "min" 0.25 (Obs.Histogram.min_value h);
        check exact "max" 120.0 (Obs.Histogram.max_value h));
    case "quantile-within-one-bucket-width" (fun () ->
        let h = Obs.Histogram.make () in
        let samples = List.init 1000 (fun i -> 0.1 +. (float_of_int i *. 0.37)) in
        List.iter (Obs.Histogram.record h) samples;
        let sorted = List.sort compare samples |> Array.of_list in
        List.iter
          (fun q ->
            let true_v = sorted.(int_of_float (ceil (q *. 1000.0)) - 1) in
            let est = Obs.Histogram.quantile h q in
            let tol = Obs.Histogram.bucket_width true_v +. 1e-9 in
            if Float.abs (est -. true_v) > tol then
              Alcotest.failf "q%.2f: estimate %g vs true %g (tol %g)" q est true_v tol)
          [ 0.5; 0.9; 0.99; 1.0 ]);
    case "quantiles-clamped-to-observed-range" (fun () ->
        let h = Obs.Histogram.make () in
        Obs.Histogram.record h 5.0;
        check exact "p50 of singleton" 5.0 (Obs.Histogram.quantile h 0.5);
        check exact "p99 of singleton" 5.0 (Obs.Histogram.quantile h 0.99));
    case "nan-and-negative-clamp-to-zero" (fun () ->
        let h = Obs.Histogram.make () in
        Obs.Histogram.record h Float.nan;
        Obs.Histogram.record h (-3.0);
        check Alcotest.int "both recorded" 2 (Obs.Histogram.count h);
        check exact "sum" 0.0 (Obs.Histogram.sum h);
        check exact "max" 0.0 (Obs.Histogram.max_value h));
    case "summary-json-shape" (fun () ->
        let h = Obs.Histogram.make () in
        List.iter (Obs.Histogram.record h) [ 1.0; 2.0; 4.0 ];
        let j = Obs.Histogram.summary_json h in
        check Alcotest.(option int) "count" (Some 3)
          (Option.bind (Obs.Json.member "count" j) Obs.Json.to_int);
        List.iter
          (fun k ->
            check Alcotest.bool k true
              (Option.bind (Obs.Json.member k j) Obs.Json.to_num <> None))
          [ "sum"; "p50"; "p90"; "p99"; "max" ]);
    (* The satellite property: merging two histograms answers quantiles
       within one bucket width of one histogram fed every sample. *)
    qcheck ~count:300 "merge-quantiles-within-one-bucket-width"
      QCheck2.Gen.(
        pair
          (list_size (0 -- 60) (float_bound_exclusive 100000.0))
          (list_size (0 -- 60) (float_bound_exclusive 100000.0)))
      (fun (xs, ys) ->
        let record l =
          let h = Obs.Histogram.make () in
          List.iter (Obs.Histogram.record h) l;
          h
        in
        let merged = record xs in
        Obs.Histogram.merge ~into:merged (record ys);
        let whole = record (xs @ ys) in
        Obs.Histogram.count merged = Obs.Histogram.count whole
        && List.for_all
             (fun q ->
               let qm = Obs.Histogram.quantile merged q in
               let qw = Obs.Histogram.quantile whole q in
               Float.abs (qm -. qw) <= Obs.Histogram.bucket_width qw +. 1e-9)
             [ 0.5; 0.9; 0.99 ]);
  ]

let window_tests =
  let manual () =
    let now = ref 0.0 in
    let w = Obs.Window.make ~clock:(fun () -> !now) () in
    (now, w)
  in
  [
    case "rate-over-lookbacks" (fun () ->
        let now, w = manual () in
        now := 0.5;
        Obs.Window.add ~n:5 w;
        now := 5.0;
        Obs.Window.add ~n:5 w;
        check Alcotest.int "total 10s" 10 (Obs.Window.total ~over_s:10.0 w);
        check (Alcotest.float 1e-9) "rate 10s" 1.0 (Obs.Window.rate ~over_s:10.0 w);
        check (Alcotest.float 1e-9) "rate 60s" (10.0 /. 60.0)
          (Obs.Window.rate ~over_s:60.0 w));
    case "old-slices-expire" (fun () ->
        let now, w = manual () in
        now := 0.5;
        Obs.Window.add ~n:5 w;
        now := 5.0;
        Obs.Window.add ~n:7 w;
        now := 64.9;
        (* 60-slice lookback from slice 64 covers slices 5..64: the
           events at slice 0 are gone, those at slice 5 remain. *)
        check Alcotest.int "total 60s" 7 (Obs.Window.total ~over_s:60.0 w);
        check Alcotest.int "total 10s" 0 (Obs.Window.total ~over_s:10.0 w);
        check Alcotest.int "lifetime" 12 (Obs.Window.lifetime_total w));
    case "ring-cell-reuse-clears-stale-count" (fun () ->
        let now, w = manual () in
        Obs.Window.add ~n:3 w;
        now := 60.2;
        (* slice 60 lands on the same ring cell as slice 0 *)
        Obs.Window.add ~n:1 w;
        check Alcotest.int "only the new slice counts" 1
          (Obs.Window.total ~over_s:60.0 w));
    case "fake-clock-windows-are-byte-identical" (fun () ->
        (* The satellite determinism check: the same op sequence under
           the same fake clock renders the same bytes, run after run. *)
        let run () =
          let clock = Obs.Clock.fake ~start:0.0 ~step:0.25 () in
          let w = Obs.Window.make ~clock () in
          for i = 1 to 40 do
            Obs.Window.add ~n:(1 + (i mod 3)) w
          done;
          Printf.sprintf "%s %s %s"
            (Obs.Json.num_to_string (Obs.Window.rate ~over_s:10.0 w))
            (Obs.Json.num_to_string (Obs.Window.rate ~over_s:60.0 w))
            (string_of_int (Obs.Window.total ~over_s:10.0 w))
        in
        check Alcotest.string "byte-identical" (run ()) (run ()));
    case "invalid-geometry-rejected" (fun () ->
        let clock = Obs.Clock.frozen 0.0 in
        check Alcotest.bool "zero slices" true
          (match Obs.Window.make ~slices:0 ~clock () with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check Alcotest.bool "zero slice width" true
          (match Obs.Window.make ~slice_s:0.0 ~clock () with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let trace_id_tests =
  [
    case "seeded-streams-are-deterministic" (fun () ->
        let g1 = Obs.Trace_id.gen ~seed:0 in
        let g2 = Obs.Trace_id.gen ~seed:0 in
        let a = List.init 8 (fun _ -> Obs.Trace_id.next g1) in
        let b = List.init 8 (fun _ -> Obs.Trace_id.next g2) in
        check Alcotest.(list string) "equal seeds, equal ids" a b;
        (* the first id of the seed-0 stream is pinned: the cram
           transcripts depend on it *)
        check Alcotest.string "splitmix64(0) rendered" "e220a8397b1dcdaf" (List.hd a);
        let g3 = Obs.Trace_id.gen ~seed:1 in
        check Alcotest.bool "different seed, different stream" true
          (Obs.Trace_id.next g3 <> List.hd a));
    case "generated-ids-are-valid-hex16" (fun () ->
        let g = Obs.Trace_id.gen ~seed:42 in
        for _ = 1 to 64 do
          let t = Obs.Trace_id.next g in
          check Alcotest.int "16 digits" 16 (String.length t);
          check Alcotest.bool "lowercase hex" true
            (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) t);
          check Alcotest.bool "valid" true (Obs.Trace_id.is_valid t)
        done);
    case "client-correlator-validation" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool (Printf.sprintf "%S accepted" s) true
              (Obs.Trace_id.is_valid s))
          [ "a"; "req-7"; "my.trace_1"; "ABC-def.123"; String.make 64 'x';
            Obs.Trace_id.placeholder ];
        List.iter
          (fun s ->
            check Alcotest.bool (Printf.sprintf "%S rejected" s) false
              (Obs.Trace_id.is_valid s))
          [ ""; "has space"; "new\nline"; "quote\""; String.make 65 'x'; "é" ]);
  ]

let log_tests =
  [
    case "jsonl-bytes-are-deterministic-under-the-fake-clock" (fun () ->
        let drive () =
          let buf = Buffer.create 256 in
          let t =
            Obs.Log.make ~level:Obs.Log.Debug ~format:Obs.Log.Jsonl
              ~clock:(Obs.Clock.fake ()) ~sink:(fun l -> Buffer.add_string buf (l ^ "\n")) ()
          in
          Obs.Log.info t "daemon up";
          Obs.Log.debug t ~trace_id:"abc123" ~fields:[ ("rung", Obs.Json.Str "greedy") ]
            "request admitted";
          Obs.Log.error t ~trace_id:"abc123" "request failed";
          Buffer.contents buf
        in
        let a = drive () in
        check Alcotest.string "two identically-driven loggers agree" a (drive ());
        check Alcotest.string "pinned bytes"
          ("{\"ts\":0,\"level\":\"info\",\"msg\":\"daemon up\",\"trace_id\":\"-\"}\n"
          ^ "{\"ts\":0.001,\"level\":\"debug\",\"msg\":\"request admitted\",\
             \"trace_id\":\"abc123\",\"rung\":\"greedy\"}\n"
          ^ "{\"ts\":0.002,\"level\":\"error\",\"msg\":\"request failed\",\
             \"trace_id\":\"abc123\"}\n")
          a;
        (* every line parses back *)
        String.split_on_char '\n' a
        |> List.filter (fun l -> l <> "")
        |> List.iter (fun l ->
               match Obs.Json.of_string l with
               | Ok (Obs.Json.Obj _) -> ()
               | _ -> Alcotest.failf "line is not a JSON object: %s" l));
    case "suppressed-lines-consume-no-clock-ticks" (fun () ->
        let buf = Buffer.create 64 in
        let t =
          Obs.Log.make ~level:Obs.Log.Warn ~format:Obs.Log.Jsonl
            ~clock:(Obs.Clock.fake ()) ~sink:(fun l -> Buffer.add_string buf (l ^ "\n")) ()
        in
        Obs.Log.debug t "dropped";
        Obs.Log.info t "dropped too";
        Obs.Log.warn t "kept";
        check Alcotest.string "first kept line still reads ts 0"
          "{\"ts\":0,\"level\":\"warn\",\"msg\":\"kept\",\"trace_id\":\"-\"}\n"
          (Buffer.contents buf));
    case "text-format-is-the-bare-message" (fun () ->
        let buf = Buffer.create 64 in
        let t =
          Obs.Log.make ~sink:(fun l -> Buffer.add_string buf (l ^ "\n")) ()
        in
        Obs.Log.info t ~trace_id:"ignored" ~fields:[ ("k", Obs.Json.Num 1.0) ]
          "rbp serve: listening";
        check Alcotest.string "byte-identical to the prints it replaced"
          "rbp serve: listening\n" (Buffer.contents buf));
    case "level-filtering-and-names" (fun () ->
        let t = Obs.Log.make ~level:Obs.Log.Info () in
        check Alcotest.bool "debug off" false (Obs.Log.enabled t Obs.Log.Debug);
        check Alcotest.bool "info on" true (Obs.Log.enabled t Obs.Log.Info);
        check Alcotest.bool "error on" true (Obs.Log.enabled t Obs.Log.Error);
        List.iter
          (fun l ->
            check Alcotest.bool "name round-trips" true
              (Obs.Log.level_of_name (Obs.Log.level_name l) = Some l))
          [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
        check Alcotest.bool "unknown name rejected" true
          (Obs.Log.level_of_name "loud" = None));
  ]

let span_codec_tests =
  [
    case "span-trees-round-trip-through-json" (fun () ->
        let tr = fake_ctx () in
        Obs.Trace.span (Some tr) ~attrs:[ ("loop", "l1") ] "ladder" (fun () ->
            Obs.Trace.span (Some tr) ~attrs:[ ("rung", "greedy") ] "rung" (fun () ->
                Obs.Trace.span (Some tr) "alloc" (fun () -> ()));
            Obs.Trace.span (Some tr) "verify" (fun () -> ()));
        let j = Obs.Export.trace_json tr in
        (match Obs.Json.member "truncated" j with
        | Some (Obs.Json.Bool false) -> ()
        | _ -> Alcotest.fail "untruncated tree must say so");
        match Obs.Export.trace_spans_of_json j with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok [ root ] ->
            check Alcotest.string "root name" "ladder" root.Obs.Trace.name;
            check Alcotest.int "children preserved" 2 (List.length root.Obs.Trace.children);
            check Alcotest.bool "attrs preserved" true
              (List.mem_assoc "loop" root.Obs.Trace.attrs)
        | Ok l -> Alcotest.failf "expected one root, got %d" (List.length l));
    case "span-cap-truncates-pre-order" (fun () ->
        let tr = fake_ctx () in
        Obs.Trace.span (Some tr) "root" (fun () ->
            for i = 1 to 10 do
              Obs.Trace.span (Some tr) (Printf.sprintf "child%d" i) (fun () -> ())
            done);
        let j = Obs.Export.trace_json ~span_cap:3 tr in
        (match Obs.Json.member "truncated" j with
        | Some (Obs.Json.Bool true) -> ()
        | _ -> Alcotest.fail "capped tree must be marked truncated");
        match Obs.Export.trace_spans_of_json j with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok [ root ] ->
            check Alcotest.int "kept the budget's worth of children" 2
              (List.length root.Obs.Trace.children)
        | Ok l -> Alcotest.failf "expected one root, got %d" (List.length l));
  ]

let suite =
  [
    ("obs.clock", clock_tests);
    ("obs.span", span_tests);
    ("obs.counter", counter_tests);
    ("obs.json", json_tests);
    ("obs.json.properties", json_property_tests);
    ("obs.events", event_tests);
    ("obs.export", export_tests);
    ("obs.trace_id", trace_id_tests);
    ("obs.log", log_tests);
    ("obs.span_codec", span_codec_tests);
    ("obs.histogram", histogram_tests);
    ("obs.window", window_tests);
    ("obs.probes", probe_tests);
  ]
