open Testlib

(* Engine: domain pool, content-addressed cache, deterministic merge. *)

let temp_dir () =
  let dir = Filename.temp_file "rbp-engine-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let pool_tests =
  [
    case "pool-results-in-submission-order" (fun () ->
        let n = 37 in
        let tasks = Array.init n (fun i () -> i * i) in
        List.iter
          (fun jobs ->
            let out = Engine.Pool.run ~jobs tasks in
            Array.iteri
              (fun i r ->
                match r with
                | Ok v -> check Alcotest.int (Printf.sprintf "j%d slot %d" jobs i) (i * i) v
                | Error _ -> Alcotest.fail "unexpected error")
              out)
          [ 1; 2; 4; 16 ]);
    case "pool-survives-raising-job" (fun () ->
        let tasks =
          Array.init 9 (fun i () -> if i = 4 then failwith "boom" else i + 1)
        in
        List.iter
          (fun jobs ->
            let out = Engine.Pool.run ~jobs tasks in
            Array.iteri
              (fun i r ->
                match (i, r) with
                | 4, Error (Failure m) -> check Alcotest.string "message" "boom" m
                | 4, _ -> Alcotest.fail "slot 4 should be the Failure"
                | _, Ok v -> check Alcotest.int "value" (i + 1) v
                | _, Error _ -> Alcotest.fail "healthy job errored")
              out)
          [ 1; 3 ]);
    case "pool-clamps-jobs" (fun () ->
        (* More workers than tasks, zero tasks, oversized -j: all fine. *)
        let out = Engine.Pool.run ~jobs:64 (Array.init 3 (fun i () -> i)) in
        check Alcotest.int "len" 3 (Array.length out);
        let empty = Engine.Pool.run ~jobs:4 [||] in
        check Alcotest.int "empty" 0 (Array.length empty);
        check Alcotest.bool "default jobs positive" true (Engine.Pool.default_jobs () >= 1));
  ]

(* --- cache key ----------------------------------------------------- *)

let gen_parts =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (pair (string_size ~gen:printable (int_range 0 6))
         (string_size ~gen:printable (int_range 0 6))))

let key_tests =
  [
    qcheck ~count:300 "key-collides-iff-parts-equal"
      QCheck2.Gen.(pair gen_parts gen_parts)
      (fun (a, b) ->
        let ka = Engine.Key.make a and kb = Engine.Key.make b in
        if a = b then ka = kb else ka <> kb);
    case "key-resists-length-shifts" (fun () ->
        (* Adversarial pairs whose naive concatenation would collide:
           the length-prefixed encoding must keep them apart. *)
        let pairs =
          [
            ([ ("a", "bc") ], [ ("ab", "c") ]);
            ([ ("a", "b"); ("c", "d") ], [ ("a", "bcd") ]);
            ([ ("a", "b"); ("c", "d") ], [ ("a", "b:c"); ("", "d") ]);
            ([ ("", "x") ], [ ("x", "") ]);
            ([ ("a", "1:b") ], [ ("a:1", "b") ]);
          ]
        in
        List.iter
          (fun (a, b) ->
            check Alcotest.bool "distinct" true (Engine.Key.make a <> Engine.Key.make b))
          pairs);
    case "key-is-stable-hex" (fun () ->
        let k = Engine.Key.make [ ("loop", "body"); ("machine", "m") ] in
        check Alcotest.int "length" 32 (String.length k);
        check Alcotest.bool "hex" true
          (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k);
        check Alcotest.string "deterministic" k
          (Engine.Key.make [ ("loop", "body"); ("machine", "m") ]));
    case "salt-carries-the-source-digest" (fun () ->
        (* Every key is tied to the library sources it was computed by:
           the salt ends with the build-time digest of lib/, and the
           encoding every key hashes starts with that salt. *)
        let d = Engine.Key.source_digest in
        check Alcotest.int "digest length" 32 (String.length d);
        check Alcotest.bool "digest is hex" true
          (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d);
        check Alcotest.string "salt = format prefix + source digest"
          ("rbp-engine/2+" ^ d) Engine.Key.version_salt;
        let salt = Engine.Key.version_salt in
        let prefix = Printf.sprintf "%d:%s" (String.length salt) salt in
        let enc = Engine.Key.encode [ ("loop", "body") ] in
        check Alcotest.string "encoding leads with the salt" prefix
          (String.sub enc 0 (String.length prefix)));
  ]

(* --- cache store --------------------------------------------------- *)

let cache_tests =
  [
    case "cache-store-find-clear" (fun () ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        let key = Engine.Key.make [ ("k", "1") ] in
        check Alcotest.bool "miss before store" true (Engine.Cache.find c ~key = None);
        let v = Obs.Json.Obj [ ("x", Obs.Json.Num 1.5) ] in
        Engine.Cache.store c ~key v;
        (match Engine.Cache.find c ~key with
        | Some got -> check Alcotest.string "round trip" (Obs.Json.to_string v) (Obs.Json.to_string got)
        | None -> Alcotest.fail "stored entry not found");
        let s = Engine.Cache.stat ~dir () in
        check Alcotest.int "one entry" 1 s.Engine.Cache.entries;
        check Alcotest.bool "bytes counted" true (s.Engine.Cache.bytes > 0);
        check Alcotest.int "cleared" 1 (Engine.Cache.clear ~dir ());
        check Alcotest.int "empty after clear" 0 (Engine.Cache.stat ~dir ()).Engine.Cache.entries);
    case "cache-malformed-entry-is-miss" (fun () ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        let key = Engine.Key.make [ ("k", "2") ] in
        Engine.Cache.store c ~key (Obs.Json.Num 7.0);
        (* Corrupt the entry on disk; find must degrade to a miss. *)
        let bucket = Filename.concat dir (String.sub key 0 2) in
        let path =
          Filename.concat bucket (String.sub key 2 (String.length key - 2) ^ ".json")
        in
        let oc = open_out path in
        output_string oc "{not json";
        close_out oc;
        check Alcotest.bool "miss" true (Engine.Cache.find c ~key = None));
    case "cache-truncation-degrades-to-miss-and-counts" (fun () ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        let key = Engine.Key.make [ ("k", "trunc") ] in
        let payload = Obs.Json.Obj [ ("v", Obs.Json.Str "precious result") ] in
        Engine.Cache.store c ~key payload;
        let bucket = Filename.concat dir (String.sub key 0 2) in
        let path =
          Filename.concat bucket (String.sub key 2 (String.length key - 2) ^ ".json")
        in
        let ic = open_in_bin path in
        let full = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let corrupt_loads = ref 0 in
        (* Every proper prefix of the stored envelope must be a miss:
           truncation can cut JSON structure (parse error) or leave valid
           JSON whose checksum no longer matches — both degrade. *)
        List.iter
          (fun len ->
            let oc = open_out_bin path in
            output_string oc (String.sub full 0 len);
            close_out oc;
            let tr = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
            check Alcotest.bool
              (Printf.sprintf "truncated to %d is a miss" len)
              true
              (Engine.Cache.find ~obs:tr c ~key = None);
            corrupt_loads :=
              !corrupt_loads + Obs.Trace.counter_total tr Obs.Counter.Engine_cache_corrupt)
          [ 0; 1; String.length full / 2; String.length full - 2 ];
        check Alcotest.int "every truncated load bumped engine.cache_corrupt" 4
          !corrupt_loads;
        (* Restore the intact envelope: the entry is whole again. *)
        let oc = open_out_bin path in
        output_string oc full;
        close_out oc;
        check Alcotest.bool "intact entry still hits" true
          (Engine.Cache.find c ~key <> None));
    qcheck ~count:200 "cache-bit-flip-is-miss-never-garbage"
      QCheck2.Gen.(pair (string_size ~gen:printable (int_range 0 40)) (pair small_nat small_nat))
      (fun (text, (pos_seed, bit)) ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        let key = Engine.Key.make [ ("k", "flip"); ("t", text) ] in
        let payload = Obs.Json.Obj [ ("v", Obs.Json.Str text) ] in
        Engine.Cache.store c ~key payload;
        let bucket = Filename.concat dir (String.sub key 0 2) in
        let path =
          Filename.concat bucket (String.sub key 2 (String.length key - 2) ^ ".json")
        in
        let ic = open_in_bin path in
        let full = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
        close_in ic;
        let pos = pos_seed mod Bytes.length full in
        Bytes.set full pos
          (Char.chr (Char.code (Bytes.get full pos) lxor (1 lsl (bit mod 8))));
        let oc = open_out_bin path in
        output_bytes oc full;
        close_out oc;
        let tr = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
        (* The integrity envelope's contract: a damaged entry loads as a
           counted miss or (when the flip lands in insignificant bytes,
           e.g. the trailing newline) as exactly the original payload —
           never as silently different data. *)
        match Engine.Cache.find ~obs:tr c ~key with
        | None -> Obs.Trace.counter_total tr Obs.Counter.Engine_cache_corrupt = 1
        | Some got -> Obs.Json.to_string got = Obs.Json.to_string payload);
    case "cache-entry-bytes-are-the-envelope" (fun () ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        List.iteri
          (fun k payload ->
            let key = Engine.Key.make [ ("k", "bytes"); ("n", string_of_int k) ] in
            Engine.Cache.store c ~key payload;
            let path =
              Filename.concat
                (Filename.concat dir (String.sub key 0 2))
                (String.sub key 2 (String.length key - 2) ^ ".json")
            in
            let ic = open_in_bin path in
            let got = really_input_string ic (in_channel_length ic) in
            close_in ic;
            (* The envelope object, serialized, then a newline. *)
            let body = Obs.Json.to_string payload in
            let want =
              Obs.Json.to_string
                (Obs.Json.Obj
                   [
                     ("sum", Obs.Json.Str (Digest.to_hex (Digest.string body)));
                     ("payload", payload);
                   ])
              ^ "\n"
            in
            check Alcotest.string "bytes on disk" want got)
          Obs.Json.
            [
              Null;
              Num 7.0;
              Str "quote \" backslash \\ newline \n tab \t ctl \001 utf8 \xc3\xa9";
              Obj [ ("x", Num 1.5); ("l", List [ Bool true; Num (-0.25); Str "" ]) ];
              List [];
            ]);
    case "cache-failed-store-leaves-no-temp-file" (fun () ->
        with_cache_dir @@ fun dir ->
        let c = Engine.Cache.open_ ~dir () in
        let key = Engine.Key.make [ ("k", "blocked") ] in
        let bucket = Filename.concat dir (String.sub key 0 2) in
        let path = Filename.concat bucket (String.sub key 2 (String.length key - 2) ^ ".json") in
        (* The entry's path is a non-empty directory: the rename fails. *)
        Unix.mkdir bucket 0o755;
        Unix.mkdir path 0o755;
        close_out (open_out (Filename.concat path "occupant"));
        Engine.Cache.store c ~key (Obs.Json.Num 1.0);
        check
          Alcotest.(list string)
          "only the blocking directory in the bucket"
          [ Filename.basename path ]
          (Array.to_list (Sys.readdir bucket));
        check Alcotest.bool "still a miss" true (Engine.Cache.find c ~key = None);
        rm_rf path;
        check Alcotest.int "nothing to clear" 0 (Engine.Cache.clear ~dir ());
        check Alcotest.bool "bucket removed" false (Sys.file_exists bucket));
    case "cache-absent-dir-is-empty" (fun () ->
        let dir = Filename.concat (Filename.get_temp_dir_name ()) "rbp-no-such-cache" in
        check Alcotest.int "entries" 0 (Engine.Cache.stat ~dir ()).Engine.Cache.entries;
        check Alcotest.int "clear" 0 (Engine.Cache.clear ~dir ()));
  ]

(* --- run: cache hit/miss/invalidation ------------------------------ *)

let int_codec =
  {
    Engine.Run.encode = (fun v -> Obs.Json.Num (float_of_int v));
    decode = Obs.Json.to_int;
  }

let run_tests =
  [
    case "run-map-hit-miss-invalidation" (fun () ->
        with_cache_dir @@ fun dir ->
        let cache = Engine.Cache.open_ ~dir () in
        let executed = ref 0 in
        let js key_salt =
          Array.init 5 (fun i ->
              {
                Engine.Run.key = Some (Engine.Key.make [ ("opt", key_salt); ("i", string_of_int i) ]);
                work = (fun _ -> incr executed; i * 10);
              })
        in
        let outs, s1 = Engine.Run.map ~cache ~codec:int_codec ~jobs:1 (js "a") in
        check Alcotest.int "cold executes all" 5 s1.Engine.Run.executed;
        check Alcotest.int "cold hits" 0 s1.Engine.Run.hits;
        check Alcotest.int "cold stores" 5 s1.Engine.Run.stored;
        Array.iteri (fun i r -> check Alcotest.bool "ok" true (r = Ok (i * 10))) outs;
        let outs2, s2 = Engine.Run.map ~cache ~codec:int_codec ~jobs:1 (js "a") in
        check Alcotest.int "warm executes none" 0 s2.Engine.Run.executed;
        check Alcotest.int "warm hits all" 5 s2.Engine.Run.hits;
        Array.iteri (fun i r -> check Alcotest.bool "ok warm" true (r = Ok (i * 10))) outs2;
        check Alcotest.int "work ran once per job" 5 !executed;
        (* A changed option is a different address: full recomputation. *)
        let _, s3 = Engine.Run.map ~cache ~codec:int_codec ~jobs:1 (js "b") in
        check Alcotest.int "option change misses" 5 s3.Engine.Run.misses;
        check Alcotest.int "option change executes" 5 s3.Engine.Run.executed);
    case "run-map-keyless-never-cached" (fun () ->
        with_cache_dir @@ fun dir ->
        let cache = Engine.Cache.open_ ~dir () in
        let runs = ref 0 in
        let js = [| { Engine.Run.key = None; work = (fun _ -> incr runs; 42) } |] in
        let _ = Engine.Run.map ~cache ~codec:int_codec ~jobs:1 js in
        let _ = Engine.Run.map ~cache ~codec:int_codec ~jobs:1 js in
        check Alcotest.int "ran both times" 2 !runs;
        check Alcotest.int "nothing stored" 0 (Engine.Cache.stat ~dir ()).Engine.Cache.entries);
    case "run-map-merges-obs-deterministically" (fun () ->
        let totals jobs =
          let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
          let loops = sample_loops ~n:8 () in
          let js =
            Array.of_list
              (List.map
                 (fun loop ->
                   {
                     Engine.Run.key = None;
                     work =
                       (fun tr ->
                         match Partition.Driver.pipeline ?obs:tr ~machine:m4x4e loop with
                         | Ok r -> r.Partition.Driver.n_copies
                         | Error _ -> -1);
                   })
                 loops)
          in
          let outs, _ = Engine.Run.map ~obs ~jobs js in
          ( Array.map (function Ok v -> v | Error _ -> -2) outs,
            Obs.Trace.counters obs,
            Obs.Trace.event_count obs )
        in
        let r1, c1, e1 = totals 1 and r4, c4, e4 = totals 4 in
        check Alcotest.bool "results equal" true (r1 = r4);
        check Alcotest.bool "counters equal" true (c1 = c4);
        check Alcotest.int "event counts equal" e1 e4);
  ]

(* --- batch: the pipeline glue -------------------------------------- *)

let sample_error =
  Verify.Stage_error.make
    ~attempts:
      [ Verify.Stage_error.attempt ~rung:"retry" ~code:"SCH001"
          Verify.Stage_error.Clustered_schedule "first try" ]
    ~code:"PRT002" ~stage:Verify.Stage_error.Partitioning ~subject:"loop-x" "no bank fits"

let batch_tests =
  [
    case "batch-codec-round-trips-metrics" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        match Partition.Driver.pipeline ~machine:m4x4e loop with
        | Error e -> Alcotest.fail (Verify.Stage_error.to_string e)
        | Ok r -> (
            let outcome = Ok (Core.Metrics.of_result r) in
            match Core.Batch.codec.Engine.Run.decode (Core.Batch.codec.Engine.Run.encode outcome) with
            | Some got -> check Alcotest.bool "equal" true (got = outcome)
            | None -> Alcotest.fail "decode failed"));
    case "batch-codec-round-trips-errors" (fun () ->
        let outcome = Error sample_error in
        match Core.Batch.codec.Engine.Run.decode (Core.Batch.codec.Engine.Run.encode outcome) with
        | Some (Error e) ->
            check Alcotest.string "code" "PRT002" e.Verify.Stage_error.code;
            check Alcotest.string "subject" "loop-x" e.Verify.Stage_error.subject;
            check Alcotest.int "attempts" 1 (List.length e.Verify.Stage_error.attempts);
            check Alcotest.bool "stage" true
              (e.Verify.Stage_error.stage = Verify.Stage_error.Partitioning)
        | _ -> Alcotest.fail "decode failed");
    case "batch-key-none-for-custom-partitioner" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        let custom =
          Partition.Driver.Custom (fun machine ddg _ -> Partition.Ne.partition ~machine ddg)
        in
        check Alcotest.bool "custom keyless" true
          (Core.Batch.job_key ~partitioner:custom ~machine:m4x4e loop = None);
        check Alcotest.bool "greedy keyed" true
          (Core.Batch.job_key ~machine:m4x4e loop <> None));
    case "batch-key-separates-inputs" (fun () ->
        let l1 = Workload.Kernels.daxpy ~unroll:1 in
        let l2 = Workload.Kernels.daxpy ~unroll:2 in
        let k ?partitioner ?scheduler ~machine l =
          Option.get (Core.Batch.job_key ?partitioner ?scheduler ~machine l)
        in
        check Alcotest.bool "loop" true (k ~machine:m4x4e l1 <> k ~machine:m4x4e l2);
        check Alcotest.bool "machine" true (k ~machine:m4x4e l1 <> k ~machine:m2x8e l1);
        check Alcotest.bool "copy model" true (k ~machine:m4x4e l1 <> k ~machine:m4x4c l1);
        check Alcotest.bool "scheduler" true
          (k ~machine:m4x4e l1 <> k ~scheduler:Partition.Driver.Swing ~machine:m4x4e l1);
        check Alcotest.bool "partitioner" true
          (k ~machine:m4x4e l1 <> k ~partitioner:Partition.Driver.Uas ~machine:m4x4e l1));
    case "batch-raising-job-is-isolated" (fun () ->
        let loops = sample_loops ~n:4 () in
        let bomb =
          (* Raises on the third loop only; Custom, so also keyless. *)
          let i = ref 0 in
          Partition.Driver.Custom
            (fun machine ddg _ ->
              incr i;
              if !i = 3 then failwith "injected crash";
              Partition.Ne.partition ~machine ddg)
        in
        let r = Core.Batch.run ~partitioner:bomb ~machine:m4x4e loops in
        check Alcotest.int "all outcomes present" 4 (Array.length r.Core.Batch.outcomes);
        let errs =
          Array.to_list r.Core.Batch.outcomes
          |> List.filter_map (fun (_, o) -> match o with Error e -> Some e | Ok _ -> None)
        in
        check Alcotest.int "exactly one error" 1 (List.length errs);
        let e = List.hd errs in
        check Alcotest.string "code" "PIPE001" e.Verify.Stage_error.code;
        check Alcotest.bool "names the exception" true
          (contains e.Verify.Stage_error.message "injected crash"));
  ]

(* --- cross-layer determinism --------------------------------------- *)

let report_json ?jobs ?cache loops =
  let runs = Core.Experiment.run_all ?jobs ?cache ~loops () in
  let ideal_ipc = Core.Experiment.ideal_ipc ~loops () in
  ( Obs.Json.to_string
      (Core.Report.paper_tables_json ~seed:1995 ~loops:(List.length loops) ~ideal_ipc runs),
    List.fold_left (fun acc (r : Core.Experiment.run) -> acc + r.cache_hits) 0 runs )

let determinism_tests =
  [
    slow_case "experiment-json-identical-j1-vs-j4" (fun () ->
        let loops = sample_loops ~n:10 () in
        let j1, _ = report_json ~jobs:1 loops in
        let j4, _ = report_json ~jobs:4 loops in
        check Alcotest.string "byte-identical" j1 j4);
    slow_case "experiment-warm-cache-identical-with-hits" (fun () ->
        with_cache_dir @@ fun dir ->
        let cache = Engine.Cache.open_ ~dir () in
        let loops = sample_loops ~n:8 () in
        let cold, cold_hits = report_json ~jobs:2 ~cache loops in
        let warm, warm_hits = report_json ~jobs:2 ~cache loops in
        check Alcotest.int "cold has no hits" 0 cold_hits;
        check Alcotest.bool "warm has hits" true (warm_hits > 0);
        check Alcotest.string "byte-identical warm" cold warm);
    slow_case "stress-report-identical-j1-vs-j4" (fun () ->
        let s1 = Robust.Stress.run ~jobs:1 ~seed:42 ~trials:24 () in
        let s4 = Robust.Stress.run ~jobs:4 ~seed:42 ~trials:24 () in
        check Alcotest.string "byte-identical" (Robust.Stress.report ~verbose:true s1)
          (Robust.Stress.report ~verbose:true s4));
  ]

let suite =
  [
    ("engine.pool", pool_tests);
    ("engine.key", key_tests);
    ("engine.cache", cache_tests);
    ("engine.run", run_tests);
    ("engine.batch", batch_tests);
    ("engine.determinism", determinism_tests);
  ]
