(* The benchmark's entry point. One run: set up a workload from its
   seed, time whole passes over its ops, check every output outside the
   timed intervals, and print one JSON result line. With --trace 1 the
   run also times a traced composition of each op's layers and prints
   the per-layer metrics instead.

   bench.exe --workload sweep|serve|exact --seed N --seconds S
             --trace 0|1 --rbp PATH/rbp.exe --workdir DIR *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms"); ("ok_ratio", "ratio"); ("peak_rss_mb", "MiB");
    ("mean_degradation", "%"); ("mean_copies", "count"); ("optimal_ratio", "ratio") ]

let per_layer =
  List.concat_map (fun l -> [ (l ^ "_ms", "ms"); (l ^ "_kw", "kword") ]) Sweep.layer_names
  @ [ ("sched.placements", "count"); ("sched.evictions", "count"); ("sched.iis_tried", "count");
      ("sched.budget_exhausted", "count"); ("ddg.edges", "count"); ("rcg.nodes", "count");
      ("rcg.edges", "count"); ("partition.copies", "count"); ("sweep.unattributed_ms", "ms");
      ("serve.roundtrip_ms", "ms"); ("serve.decode_ms", "ms"); ("serve.queue_ms", "ms");
      ("serve.compile_ms", "ms"); ("serve.total_ms", "ms"); ("serve.overhead_ms", "ms");
      ("serve.cache_hit_ratio", "ratio"); ("serve.reply_bytes", "bytes");
      ("robust.ladder_ms", "ms"); ("robust.ladder_kw", "kword"); ("robust.rungs", "count");
      ("regalloc.alloc_ms", "ms"); ("regalloc.spills", "count"); ("verify.diags_ms", "ms");
      ("engine.cache.store_ms", "ms"); ("engine.cache.find_ms", "ms");
      ("exact.greedy_ms", "ms"); ("exact.solve_ms", "ms"); ("exact.solve_kw", "kword");
      ("exact.nodes", "count"); ("exact.leaves", "count"); ("exact.pruned", "count");
      ("exact.backjumps", "count"); ("exact.nodes_per_ms", "1/ms");
      ("trace.overhead_ratio", "ratio") ]

(* Every run prints the full metric list of its mode. A workload must
   supply each end-to-end metric; a layer its ops never enter reads 0. *)
let report ~trace ~attempted ~failed values =
  let names = if trace then per_layer else end_to_end in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n names) then fail "unlisted metric %s" n)
    values;
  let metric (n, u) =
    match List.assoc_opt n values with
    | Some v -> m n u v
    | None -> if trace then m n u 0.0 else fail "workload did not measure %s" n
  in
  emit ~correct:(failed = 0) ~attempted ~failed (List.map metric names)

let timing ~setup_s p =
  [ ("setup_s", setup_s); ("throughput_per_s", throughput p);
    ("latency_p50_ms", quantile p.latencies 0.5); ("latency_p90_ms", quantile p.latencies 0.9) ]

let ok_ratio p failed = float_of_int (p.attempted - failed) /. float_of_int p.attempted

(* The traced-decomposition guard: a traced composition that does not
   reproduce its untraced op on every op fails the run. *)
let guard name tp =
  Array.iter (function Error e -> fail "%s: traced decomposition: %s" name e | Ok _ -> ()) tp.first;
  if Array.exists (fun n -> n > 0) tp.mismatches then
    fail "%s: traced decomposition changed between passes" name

(* The traced mode splits its time between an untraced phase (for the
   guard and the overhead ratio) and the traced phase. *)
let phase_seconds ~trace seconds = if trace then seconds /. 2.0 else seconds

let sweep ~seed ~seconds ~trace =
  let ops, setup_s = setup_median ~trace (fun _ -> Sweep.setup ~seed) in
  let seconds = phase_seconds ~trace seconds in
  let p = passes ~seconds ~keep:(Sweep.keep ops) ~same:Sweep.same ops Sweep.run_op in
  let rss = peak_rss_mib "self" in
  let ok, passed = passed_ops ~workload:"sweep" p in
  let failed = failures p passed in
  if not trace then
    report ~trace ~attempted:p.attempted ~failed
      (timing ~setup_s:(setup_s ()) p
      @ [ ("ok_ratio", ok_ratio p failed); ("peak_rss_mb", rss) ]
      @ quality ok)
  else begin
    let tp =
      traced_passes ~seconds ~keep:keep_all ~same:( = ) ops (Sweep.traced_op ~expected:p.first)
    in
    guard "sweep" tp;
    report ~trace ~attempted:p.attempted ~failed
      (Sweep.layer_metrics ~traced_ops:tp.attempted ~distinct:(Array.length ops)
      @ [ ("trace.overhead_ratio", throughput tp /. throughput p) ])
  end

let exact ~seed ~seconds ~trace =
  let ops, setup_s = setup_median ~trace (fun _ -> Exactwl.setup ~seed) in
  let seconds = phase_seconds ~trace seconds in
  let p = passes ~seconds ~keep:(Exactwl.keep ops) ~same:Exactwl.same ops Exactwl.run_op in
  let rss = peak_rss_mib "self" in
  let ok, passed = passed_ops ~workload:"exact" p in
  let failed = failures p passed in
  if not trace then
    report ~trace ~attempted:p.attempted ~failed
      (timing ~setup_s:(setup_s ()) p
      @ [ ("ok_ratio", ok_ratio p failed); ("peak_rss_mb", rss) ]
      @ Exactwl.quality ok)
  else begin
    let tp =
      traced_passes ~seconds ~keep:keep_all
        ~same:(fun a b -> Exactwl.summary a = Exactwl.summary b)
        ops (Exactwl.traced_op ~expected:p.first)
    in
    guard "exact" tp;
    report ~trace ~attempted:p.attempted ~failed
      (Exactwl.layer_metrics ~traced_ops:tp.attempted ~distinct:(Array.length ops)
      @ [ ("trace.overhead_ratio", throughput tp /. throughput p) ])
  end

(* Every serve request misses the cache: the daemon's cache is emptied
   (untimed) before every timed pass, so each pass compiles and stores
   every result again. *)
let serve ~rbp ~seed ~seconds ~trace =
  let setup k =
    let reqs = Servewl.inputs ~seed in
    (reqs, Servewl.start ~rbp ~dir:(Printf.sprintf "d%d" k))
  in
  let (reqs, d), setup_s =
    setup_median ~trace ~dispose:(fun (_, d) -> ignore (Servewl.stop d)) setup
  in
  let seconds = phase_seconds ~trace seconds in
  let between () = Servewl.clear_cache d in
  let run _ r = Servewl.roundtrip d r in
  let same = Servewl.same in
  let p = passes ~seconds ~between ~keep:keep_all ~same reqs run in
  let tp =
    if trace then begin
      between ();
      Some
        (traced_passes ~seconds ~between ~keep:keep_all ~same reqs (fun i r ->
             let a = run i r in
             Result.iter Servewl.record a;
             a))
    end
    else None
  in
  let rss = Servewl.stop d in
  let setup_s = setup_s () in
  (* The output check, after the timed phase: each reply against an
     in-process ladder run of the same request (traced: the compile
     split's spans). *)
  let ok = ref [] and passed = Array.make (Array.length reqs) false in
  Layers.first_pass := true;
  Array.iteri
    (fun i a ->
      let name = Ir.Loop.name reqs.(i).loop in
      match a with
      | Error e -> log "serve: %s: %s" name e
      | Ok (a : Servewl.answer) -> (
          match Servewl.ladder_check ~traced:trace reqs.(i) a with
          | Error e -> log "serve: %s: %s" name e
          | Ok metrics ->
              ok := metrics :: !ok;
              passed.(i) <- true))
    p.first;
  let failed = failures p passed in
  match tp with
  | None ->
      report ~trace ~attempted:p.attempted ~failed
        (timing ~setup_s p
        @ [ ("ok_ratio", ok_ratio p failed); ("peak_rss_mb", rss) ]
        @ quality !ok)
  | Some tp ->
      Servewl.cache_roundtrip ~dir:"tcache" reqs p.first;
      let distinct = Array.length reqs in
      report ~trace ~attempted:p.attempted ~failed
        (Servewl.client_metrics ~traced_ops:tp.attempted ~distinct
        @ Servewl.split_metrics ~distinct
        @ [ ("trace.overhead_ratio", throughput tp /. throughput p) ])

(* The op list a seed gives, one op per line, for the self-test. *)
let list_ops ~seed = function
  | "sweep" -> Array.iter (fun op -> print_endline (Sweep.describe op)) (Sweep.setup ~seed)
  | "exact" -> Array.iter (fun op -> print_endline (Exactwl.describe op)) (Exactwl.setup ~seed)
  | "serve" -> Array.iter (fun r -> print_endline (Servewl.describe r)) (Servewl.inputs ~seed)
  | w -> fail "unknown workload %S" w

let () =
  let workload = ref "" and seed = ref 1995 and seconds = ref 10.0 and trace = ref 0 in
  let rbp = ref "" and workdir = ref "" and list = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep, serve or exact");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S minimum timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer mode");
      ("--rbp", Arg.Set_string rbp, "PATH the rbp executable (serve workloads)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory for sockets and caches");
      ("--list-ops", Arg.Set list, " print the seed's op list and exit");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --rbp PATH --workdir DIR";
  if !list then begin
    list_ops ~seed:!seed !workload;
    exit 0
  end;
  if !workdir <> "" then Sys.chdir !workdir;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  match !workload with
  | "sweep" -> sweep ~seed ~seconds ~trace
  | "exact" -> exact ~seed ~seconds ~trace
  | "serve" ->
      if !rbp = "" || Filename.is_relative !rbp then fail "--rbp needs an absolute path";
      serve ~rbp:!rbp ~seed ~seconds ~trace
  | w -> fail "unknown workload %S" w
