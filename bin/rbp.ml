(* rbp — register-bank partitioning driver.

   A command-line front end over the whole library: inspect suite loops or
   user-written IR files, software-pipeline them on configurable clustered
   machines, dump RCG/DDG graphs, and run the paper's experiments. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let loop_arg =
  let doc =
    "Loop to operate on: a suite loop name (see $(b,rbp list)) or a path to a textual IR \
     file (see the README for the syntax)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOOP" ~doc)

(* lint and analyze sweep the whole suite when no loop is named. *)
let opt_loop_arg =
  let doc =
    "Loop to operate on: a suite loop name (see $(b,rbp list)) or a path to a textual IR \
     file. When omitted, the whole suite is swept."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"LOOP" ~doc)

let clusters_arg =
  let doc = "Number of clusters (register banks); must divide 16." in
  Arg.(value & opt int 4 & info [ "clusters"; "c" ] ~docv:"N" ~doc)

let model_arg =
  let doc = "Copy model: $(b,embedded) or $(b,copy-unit)." in
  let model_conv =
    Arg.enum [ ("embedded", Mach.Machine.Embedded); ("copy-unit", Mach.Machine.Copy_unit) ]
  in
  Arg.(value & opt model_conv Mach.Machine.Embedded & info [ "model"; "m" ] ~docv:"MODEL" ~doc)

let partitioner_arg =
  let doc = "Partitioner: $(b,greedy) (the paper's), $(b,bug) or $(b,uas)." in
  let part_conv =
    Arg.enum
      [ ("greedy", Partition.Driver.Greedy Rcg.Weights.default);
        ("bug", Partition.Driver.Bug); ("uas", Partition.Driver.Uas) ]
  in
  Arg.(
    value
    & opt part_conv (Partition.Driver.Greedy Rcg.Weights.default)
    & info [ "partitioner"; "p" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Suite generation seed." in
  Arg.(value & opt int 1995 & info [ "seed" ] ~docv:"SEED" ~doc)

let dot_arg =
  let doc = "Emit Graphviz DOT instead of text." in
  Arg.(value & flag & info [ "dot" ] ~doc)

(* The one place a file is read whole; the [Error] message names the
   path (the system's open error already does, a read error does not). *)
let read_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      try Ok (really_input_string ic (in_channel_length ic))
      with Sys_error e -> Error (path ^ ": " ^ e))

(* Every suite-sweeping subcommand sizes its sweep with this one
   argument; a sweep of no loops has no means to report, so N < 1 is a
   usage error. *)
let suite_size_arg =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a loop count of at least 1, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt positive Workload.Suite.size
    & info [ "loops"; "n" ] ~docv:"N"
        ~doc:"Sweep the first $(docv) suite loops (at least 1; default the whole suite).")

let load_loop ~seed name =
  if Sys.file_exists name then
    Result.bind (read_file name) (fun text ->
        Result.map_error (Printf.sprintf "%s: %s" name) (Ir.Parse.loop_of_string text))
  else
    match Workload.Suite.by_name ~seed name with
    | Some loop -> Ok loop
    | None ->
        Error
          (Printf.sprintf
             "unknown loop %S: not a file and not a suite loop (try `rbp list`)" name)

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("rbp: " ^ e);
      exit 1

let machine_of ~clusters ~model =
  try Ok (Mach.Machine.paper_clustered ~clusters ~copy_model:model)
  with Invalid_argument m -> Error m

(* One --deterministic across trace/explain/report: same flag name, same
   doc string, same clock choice, so byte-stable output means the same
   thing in every subcommand. *)
let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Use a fake fixed-step clock instead of wall time and drop host-dependent \
           timing output, making the result byte-stable across runs (for tests and \
           diffing).")

(* The single place wall time is named. Every subcommand — including
   serve and bombard — selects between the fake and the real clock
   through these helpers, so "--deterministic" cannot drift into
   meaning different clocks in different subcommands. *)
let real_clock : unit -> float = Unix.gettimeofday

let clock_of ~deterministic = if deterministic then Obs.Clock.fake () else real_clock

(* ------------------------------------------------------------------ *)
(* Engine arguments: one -j/--jobs and one cache triple shared by every
   suite-sweeping subcommand, so the flags mean the same thing
   everywhere. -j 1 (the default) is the exact serial path.            *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the work over $(docv) domains (0 = one per core). The default 1 runs \
           the exact serial path; every other value produces byte-identical output.")

let cache_dir_arg =
  Arg.(
    value
    & opt string Engine.Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Content-addressed result cache directory (see $(b,rbp cache)).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Skip the result cache entirely: neither read nor write cached per-loop \
           outcomes.")

let cache_of ~no_cache ~cache_dir =
  if no_cache then None else Some (Engine.Cache.open_ ~dir:cache_dir ())

let effective_jobs jobs = if jobs <= 0 then Engine.Pool.default_jobs () else jobs

(* One --deadline-ms across pipeline/exact: the same Engine.Cancel token
   the serve daemon uses, polled at stage boundaries (pipeline) and
   every few hundred search nodes (exact), surfacing as PIPE008 /
   budget-exhausted rather than a kill. *)
let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Give up cooperatively after $(docv) milliseconds of wall time: the pipeline \
           stops at the next stage boundary with a PIPE008 stage error, the exact \
           solver returns its incumbent as budget-exhausted. Off by default.")

let cancel_of_deadline = function
  | None -> Engine.Cancel.never
  | Some ms ->
      Engine.Cancel.make
        ~deadline:(real_clock () +. (float_of_int ms /. 1000.))
        ~clock:real_clock ()

(* ------------------------------------------------------------------ *)
(* Tracing support                                                     *)

let trace_out_arg =
  let doc =
    "Also write the instrumentation trace to $(docv): Chrome trace-event JSON when the \
     file name ends in $(b,.json) (load it in chrome://tracing or Perfetto), JSONL \
     events otherwise."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let export_for_path path obs =
  if Filename.check_suffix path ".json" then Obs.Export.chrome obs else Obs.Export.jsonl obs

(* Run [f] under a fresh real-clock context when [--trace-out] was given.
   The export is written from an [at_exit] hook (guarded against double
   writes), so the trace survives [or_die]-style failures and non-zero
   exits — a failing pipeline leaves exactly the evidence one wants. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f None
  | Some path ->
      let obs = Obs.Trace.make ~clock:real_clock () in
      let written = ref false in
      let finish () =
        if not !written then begin
          written := true;
          write_file path (export_for_path path obs)
        end
      in
      at_exit finish;
      Fun.protect ~finally:finish (fun () -> f (Some obs))

(* ------------------------------------------------------------------ *)
(* list                                                                *)

let list_cmd =
  let run seed verbose =
    let loops = Workload.Suite.loops ~seed () in
    let t =
      Util.Table.create ~title:"Suite loops"
        ~header:
          (if verbose then [ "name"; "ops"; "regs"; "MinII"; "RecMII"; "ideal IPC" ]
           else [ "name"; "ops" ])
    in
    List.iter
      (fun loop ->
        if verbose then begin
          let ddg = Ddg.Graph.of_loop loop in
          let rec_mii = Ddg.Minii.rec_mii ddg in
          let mii = max (Ddg.Minii.res_mii ~width:16 (Ddg.Graph.size ddg)) rec_mii in
          Util.Table.add_row t
            [
              Ir.Loop.name loop;
              string_of_int (Ir.Loop.size loop);
              string_of_int (Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop));
              string_of_int mii;
              string_of_int rec_mii;
              Util.Table.cell_float ~decimals:2
                (float_of_int (Ir.Loop.size loop) /. float_of_int mii);
            ]
        end
        else
          Util.Table.add_row t [ Ir.Loop.name loop; string_of_int (Ir.Loop.size loop) ])
      loops;
    Util.Table.print t
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also analyse each loop (slower).")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the experimental loop suite")
    Term.(const run $ seed_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* show                                                                *)

let show_cmd =
  let run seed name =
    let loop = or_die (load_loop ~seed name) in
    Format.printf "%a@." Ir.Loop.pp loop;
    let ddg = Ddg.Graph.of_loop loop in
    let rec_mii = Ddg.Minii.rec_mii ddg in
    Format.printf "MinII (16-wide) = %d   RecMII = %d   critical path = %d cycles@."
      (max (Ddg.Minii.res_mii ~width:16 (Ddg.Graph.size ddg)) rec_mii)
      rec_mii
      (Ddg.Graph.critical_path_length ddg);
    match Sched.Modulo.ideal ~machine:Mach.Machine.paper_ideal ddg with
    | None -> print_endline "ideal pipeline: FAILED"
    | Some o ->
        Format.printf "@.--- ideal 16-wide kernel ---@.%a@." Sched.Kernel.pp
          o.Sched.Modulo.kernel
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a loop's body, dependence bounds, and ideal kernel")
    Term.(const run $ seed_arg $ loop_arg)

(* ------------------------------------------------------------------ *)
(* pipeline                                                            *)

let scheduler_arg =
  let doc = "Modulo scheduler: $(b,rau) (the paper's) or $(b,swing) (lifetime-sensitive)." in
  let sched_conv =
    Arg.enum [ ("rau", Partition.Driver.Rau); ("swing", Partition.Driver.Swing) ]
  in
  Arg.(value & opt sched_conv Partition.Driver.Rau & info [ "scheduler"; "s" ] ~docv:"S" ~doc)

let unroll_arg =
  let doc = "Unroll the loop by $(docv) before the framework runs." in
  Arg.(value & opt int 1 & info [ "unroll"; "u" ] ~docv:"FACTOR" ~doc)

let pipeline_cmd =
  let run seed name clusters model partitioner scheduler unroll trips jobs trace_out
      deadline_ms =
    let loop = or_die (load_loop ~seed name) in
    let loop =
      if unroll <= 1 then loop
      else begin
        let loop', _ = Ir.Unroll.loop ~factor:unroll loop in
        Format.printf "(unrolled %dx: %d ops)@." unroll (Ir.Loop.size loop');
        loop'
      end
    in
    let machine = or_die (machine_of ~clusters ~model) in
    with_trace trace_out @@ fun obs ->
    let r =
      (* One loop is one job, so the pool clamps -j N to the serial
         path — the flag still means the same thing as on the suite
         commands. *)
      let cancel = Engine.Cancel.guard (cancel_of_deadline deadline_ms) in
      let task () =
        Partition.Driver.pipeline ?obs ~cancel ~partitioner ~scheduler ~machine loop
      in
      let out =
        match (Engine.Pool.run ~jobs:(effective_jobs jobs) [| task |]).(0) with
        | Ok out -> out
        | Error exn -> raise exn
      in
      or_die (Result.map_error Verify.Stage_error.to_string out)
    in
    Format.printf "=== %a ===@." Mach.Machine.pp machine;
    Format.printf "@.--- ideal kernel (II=%d) ---@.%a@." r.Partition.Driver.ideal.Sched.Modulo.ii
      Sched.Kernel.pp r.Partition.Driver.ideal.Sched.Modulo.kernel;
    Format.printf "--- bank assignment ---@.%a@." Partition.Assign.pp r.Partition.Driver.assignment;
    Format.printf "--- rewritten body (%d copies) ---@.%a@." r.Partition.Driver.n_copies
      Ir.Loop.pp r.Partition.Driver.rewritten;
    Format.printf "--- clustered kernel (II=%d) ---@.%a@."
      r.Partition.Driver.clustered.Sched.Modulo.ii Sched.Kernel.pp
      r.Partition.Driver.clustered.Sched.Modulo.kernel;
    Format.printf "degradation %.0f (100 = ideal), IPC %.2f -> %.2f@." r.Partition.Driver.degradation
      r.Partition.Driver.ipc_ideal r.Partition.Driver.ipc_clustered;
    if trips > 0 then begin
      let code =
        Sched.Expand.flatten ~kernel:r.Partition.Driver.clustered.Sched.Modulo.kernel
          ~loop:r.Partition.Driver.rewritten ~trips
      in
      Format.printf "@.--- expanded pipeline (%d trips, %d cycles, speedup %.2fx) ---@." trips
        code.Sched.Expand.total_cycles
        (Sched.Expand.speedup code ~latency:machine.Mach.Machine.latency
           ~loop:r.Partition.Driver.rewritten);
      List.iter
        (fun (x : Sched.Expand.instance) ->
          Format.printf "  %4d: it%-2d %s@." x.cycle x.iteration (Ir.Op.to_string x.op))
        code.Sched.Expand.instances
    end
  in
  let trips =
    Arg.(
      value & opt int 0
      & info [ "expand" ] ~docv:"TRIPS"
          ~doc:"Also print the fully expanded pipeline for $(docv) iterations.")
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Run the full partition + software-pipelining framework on one loop")
    Term.(
      const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ partitioner_arg
      $ scheduler_arg $ unroll_arg $ trips $ jobs_arg $ trace_out_arg $ deadline_ms_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let run seed name clusters model partitioner scheduler format out deterministic =
    let loop = or_die (load_loop ~seed name) in
    let machine = or_die (machine_of ~clusters ~model) in
    let obs = Obs.Trace.make ~clock:(clock_of ~deterministic) () in
    let result = Partition.Driver.pipeline ~obs ~partitioner ~scheduler ~machine loop in
    (* Export before reporting failure: a failing pipeline's trace shows
       which stage died and what it had counted up to that point. *)
    let text =
      match format with
      | `Tree -> Obs.Export.tree obs
      | `Jsonl -> Obs.Export.jsonl obs
      | `Chrome -> Obs.Export.chrome obs
    in
    (match out with
    | None -> print_string text
    | Some path ->
        write_file path text;
        Printf.printf "wrote %s\n" path);
    match result with
    | Ok _ -> ()
    | Error e ->
        prerr_endline ("rbp: pipeline failed: " ^ Verify.Stage_error.to_string e);
        exit 1
  in
  let format =
    let fmt_conv = Arg.enum [ ("tree", `Tree); ("jsonl", `Jsonl); ("chrome", `Chrome) ] in
    Arg.(
      value & opt fmt_conv `Tree
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:
            "Export format: $(b,tree) (human-readable span tree with counters), \
             $(b,jsonl) (one JSON event per line) or $(b,chrome) (Chrome trace-event \
             JSON for chrome://tracing / Perfetto).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the full framework on one loop under instrumentation and export the span \
          tree, stage counters and gauges. The trace is exported even when the pipeline \
          fails (exit 1), showing which stage died")
    Term.(
      const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ partitioner_arg
      $ scheduler_arg $ format $ out $ deterministic_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run seed name clusters model partitioner scheduler dot rtable _deterministic =
    let loop = or_die (load_loop ~seed name) in
    let machine = or_die (machine_of ~clusters ~model) in
    let e = or_die (Core.Explain.run ~partitioner ~scheduler ~machine loop) in
    if dot then print_string (Core.Explain.dot e)
    else if rtable then print_string (Core.Explain.reservation_table e)
    else begin
      print_string (Core.Explain.narrative e);
      print_newline ();
      print_string (Core.Explain.reservation_table e)
    end
  in
  let rtable =
    Arg.(
      value & flag
      & info [ "rtable" ]
          ~doc:"Print only the ASCII modulo reservation table of the clustered kernel.")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Print only the RCG as Graphviz DOT with nodes colored by their final bank.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Narrate the framework's decisions on one loop from its provenance events: RCG \
          weight contributions, greedy bank placement (benefit vectors, tie-breaks, \
          balance penalty), every cross-bank copy's route, and the modulo scheduler's II \
          escalations and evictions. Always runs under a deterministic clock, so the \
          output is byte-stable")
    Term.(
      const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ partitioner_arg
      $ scheduler_arg $ dot $ rtable $ deterministic_arg)

(* ------------------------------------------------------------------ *)
(* report                                                              *)

(* Bridge the solver's per-geometry aggregate into core's plain Table-3
   record (core deliberately has no dependency on lib/exact). *)
let gap_row_of_geometry (g : Exact.Gap.geometry) =
  let r = Exact.Gap.row_of g in
  {
    Core.Report.gap_label = r.Exact.Gap.label;
    gap_loops = r.Exact.Gap.loops;
    gap_optimal = r.Exact.Gap.optimal;
    gap_bound = r.Exact.Gap.bound;
    gap_exhausted = r.Exact.Gap.exhausted;
    gap_greedy_optimal = r.Exact.Gap.greedy_optimal;
    gap_mean_greedy_ii = r.Exact.Gap.mean_greedy_ii;
    gap_mean_exact_ii = r.Exact.Gap.mean_exact_ii;
    gap_mean_greedy_copies = r.Exact.Gap.mean_greedy_copies;
    gap_mean_exact_copies = r.Exact.Gap.mean_exact_copies;
  }

let report_cmd =
  let run seed n format check out jobs cache_dir no_cache deterministic =
    (* An unreadable document to check fails before the sweep, not after
       it; the report's own output file is only written below. *)
    Option.iter
      (fun path -> if out <> Some path then ignore (or_die (read_file path)))
      check;
    let loops = Workload.Suite.loops ~seed ~n () in
    let cache = cache_of ~no_cache ~cache_dir in
    let t0 = real_clock () in
    let runs = Core.Experiment.run_all ~jobs ?cache ~loops () in
    let wall_s = real_clock () -. t0 in
    let cache_hits =
      List.fold_left (fun acc (r : Core.Experiment.run) -> acc + r.cache_hits) 0 runs
    in
    let ideal_ipc = Core.Experiment.ideal_ipc ~loops () in
    (* Table 3 (greedy vs. provably optimal) re-solves the exact slice, so
       it is computed once, lazily — md/text/check need it, json keeps the
       original rbp-bench/1 shape for baseline compatibility. *)
    let gap =
      lazy
        (List.map gap_row_of_geometry
           (Exact.Gap.run ~jobs:(effective_jobs jobs) ~seed ~n ()))
    in
    let text =
      match format with
      | `Md -> Core.Report.paper_tables_md ~gap:(Lazy.force gap) ~ideal_ipc runs
      | `Text ->
          let b = Buffer.create 1024 in
          let table t =
            Buffer.add_string b (Util.Table.render t);
            Buffer.add_char b '\n'
          in
          table (Core.Report.table1 ~ideal_ipc runs);
          table (Core.Report.table2 runs);
          (* Figures 5-7: one histogram per cluster count, embedded
             against copy-unit. *)
          List.iter
            (fun clusters ->
              let run copy_model =
                List.find
                  (fun (r : Core.Experiment.run) ->
                    r.config.clusters = clusters && r.config.copy_model = copy_model)
                  runs
              in
              table
                (Core.Report.figure_histogram (run Mach.Machine.Embedded)
                   (run Mach.Machine.Copy_unit)
                   ~title:(Printf.sprintf "Degradation histogram, %d clusters" clusters)))
            [ 2; 4; 8 ];
          Buffer.add_string b (Util.Table.render (Core.Report.table3 (Lazy.force gap)));
          Buffer.add_string b "failures:\n";
          Buffer.add_string b (Core.Report.failures_summary runs);
          Buffer.contents b
      | `Csv -> Core.Report.to_csv runs
      | `Json ->
          (* The engine telemetry is the non-deterministic part; attach
             it only when the caller did not ask for byte-stable output. *)
          let engine =
            if deterministic then None
            else Some { Core.Report.jobs = effective_jobs jobs; cache_hits; wall_s }
          in
          Obs.Json.to_string
            (Core.Report.paper_tables_json ?engine ~seed ~loops:n ~ideal_ipc runs)
          ^ "\n"
    in
    (match out with
    | None -> print_string text
    | Some path ->
        write_file path text;
        Printf.printf "wrote %s\n" path);
    match check with
    | None -> ()
    | Some path -> (
        let doc = or_die (read_file path) in
        match Core.Report.check_tables_in ~gap:(Lazy.force gap) ~ideal_ipc runs doc with
        | Ok () -> Printf.printf "%s: tables are up to date\n" path
        | Error missing ->
            Printf.eprintf "rbp: %s is stale: %s differ(s) from this run (regenerate with \
                            `make report`)\n"
              path missing;
            exit 1)
  in
  let format =
    let fmt_conv =
      Arg.enum [ ("md", `Md); ("text", `Text); ("csv", `Csv); ("json", `Json) ]
    in
    Arg.(
      value & opt fmt_conv `Md
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,md) (the EXPERIMENTS.md Table 1/2 sections, \
             byte-identical), $(b,text) (aligned terminal tables, with the Figure 5-7 \
             degradation histograms), $(b,csv) (one row per pipelined loop and \
             configuration) or $(b,json) (the rbp-bench/1 aggregate schema, consumable \
             by $(b,rbp perfdiff)).")
  in
  let check =
    Arg.(
      value & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "After printing, verify that every regenerated table block appears verbatim \
             in $(docv) (normally EXPERIMENTS.md); exit 1 if any is stale.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the paper's experiment suite and render Tables 1-3 as markdown (the exact \
          EXPERIMENTS.md sections, Table 3 being the greedy-vs-optimal gap study), \
          terminal tables with Figures 5-7, per-loop CSV, or rbp-bench/1 JSON. With \
          $(b,--check) also verify a document still contains the regenerated tables")
    Term.(
      const run $ seed_arg $ suite_size_arg $ format $ check $ out $ jobs_arg
      $ cache_dir_arg $ no_cache_arg $ deterministic_arg)

(* ------------------------------------------------------------------ *)
(* exact                                                               *)

let exact_cmd =
  (* A negative budget would stop the search before its first node and
     still be reported (and written to --json) as a budget, so it is a
     usage error; 0 stays valid and evaluates only the seeds. *)
  let budget_arg =
    let non_negative =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "expected a node budget of at least 0, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value
      & opt non_negative Exact.Solve.default_budget
      & info [ "budget" ] ~docv:"NODES"
          ~doc:
            "Branch-and-bound node budget per loop. Node counts are deterministic, so \
             the same budget gives byte-identical results on every host and $(b,-j) \
             level (unlike $(b,--deadline-ms), which is wall-clock).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"In slice mode, also print every per-loop solve, one table per geometry.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "In slice mode, also write the gap aggregates as an rbp-bench/1 document \
             with an $(b,exact) section (consumable by $(b,rbp perfdiff), gated in CI \
             against bench/baseline/BENCH_exact.json).")
  in
  let print_status (s : Exact.Solve.t) =
    (match s.Exact.Solve.status with
    | Exact.Solve.Optimal w ->
        Printf.printf "exact   II %d, %d copies - proven optimal (search complete, verified)\n"
          w.Exact.Witness.ii w.Exact.Witness.copies
    | Exact.Solve.Bound { lower; best } -> (
        Printf.printf "exact   proven lower bound II >= %d (search complete)\n" lower;
        match best with
        | Some w ->
            Printf.printf "        best realized: II %d, %d copies\n" w.Exact.Witness.ii
              w.Exact.Witness.copies
        | None -> Printf.printf "        no witness schedule realized\n")
    | Exact.Solve.Budget_exhausted { lower; best } -> (
        Printf.printf "exact   budget exhausted; static lower bound II >= %d\n" lower;
        match best with
        | Some w ->
            Printf.printf "        incumbent: II %d, %d copies (not proven optimal)\n"
              w.Exact.Witness.ii w.Exact.Witness.copies
        | None -> Printf.printf "        no incumbent realized\n"));
    Printf.printf "search  %d nodes, %d leaves, %d pruned, %d backjumps\n"
      s.Exact.Solve.stats.Exact.Search.nodes s.Exact.Solve.stats.Exact.Search.leaves
      s.Exact.Solve.stats.Exact.Search.pruned s.Exact.Solve.stats.Exact.Search.backjumps;
    Printf.printf "verify  %s\n" (Verify.Diag.summary s.Exact.Solve.diags);
    List.iter
      (fun d -> Printf.printf "  %s\n" (Verify.Diag.to_string d))
      (Verify.Diag.errors s.Exact.Solve.diags);
    if Verify.Diag.has_errors s.Exact.Solve.diags then exit 1
  in
  let json_of ~seed ~n ~budget geos =
    let int_num x = Obs.Json.Num (float_of_int x) in
    let geo (g : Exact.Gap.geometry) =
      let r = Exact.Gap.row_of g in
      let pct =
        if r.Exact.Gap.loops = 0 then 0.0
        else 100.0 *. float_of_int r.Exact.Gap.greedy_optimal /. float_of_int r.Exact.Gap.loops
      in
      Obs.Json.Obj
        [
          ("label", Obs.Json.Str r.Exact.Gap.label);
          ("loops", int_num r.Exact.Gap.loops);
          ("optimal", int_num r.Exact.Gap.optimal);
          ("bound", int_num r.Exact.Gap.bound);
          ("exhausted", int_num r.Exact.Gap.exhausted);
          ("greedy_optimal", int_num r.Exact.Gap.greedy_optimal);
          ("greedy_optimal_pct", Obs.Json.Num pct);
          ("mean_greedy_ii", Obs.Json.Num r.Exact.Gap.mean_greedy_ii);
          ("mean_exact_ii", Obs.Json.Num r.Exact.Gap.mean_exact_ii);
          ("mean_greedy_copies", Obs.Json.Num r.Exact.Gap.mean_greedy_copies);
          ("mean_exact_copies", Obs.Json.Num r.Exact.Gap.mean_exact_copies);
        ]
    in
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "rbp-bench/1");
        ("seed", int_num seed);
        ("loops", int_num n);
        (* No per-config IPC sweep happens here; the field is structural
           (required by the schema) and never gated at 0. *)
        ("ideal_ipc", Obs.Json.Num 0.0);
        ("configs", Obs.Json.List []);
        ( "exact",
          Obs.Json.Obj
            [
              ("budget", int_num budget);
              ("max_vregs", int_num Exact.Solve.slice_max_vregs);
              ("geometries", Obs.Json.List (List.map geo geos));
            ] );
      ]
  in
  let run seed name clusters model budget deadline_ms n jobs verbose json_out =
    let cancel = cancel_of_deadline deadline_ms in
    match name with
    | Some name ->
        (* Single-loop mode: solve one loop on one machine, show the claim
           and its verification. *)
        let loop = or_die (load_loop ~seed name) in
        let machine = or_die (machine_of ~clusters ~model) in
        let e = Exact.Gap.one ~budget ~cancel ~machine loop in
        let s = e.Exact.Gap.solve in
        Printf.printf "=== %s on %s ===\n" e.Exact.Gap.loop_name
          machine.Mach.Machine.name;
        (* The AN008 set, from the same call [rbp explain] lists: solver
           cost context and narrative cite one remat set. *)
        let remat =
          Analysis.Valrange.remat_candidates loop (Analysis.Valrange.of_loop loop)
        in
        Printf.printf "registers %d (slice limit %d), remat candidates %d\n"
          s.Exact.Solve.n_regs Exact.Solve.slice_max_vregs (List.length remat);
        if e.Exact.Gap.greedy_ii > 0 then
          Printf.printf "greedy  II %d, %d copies\n" e.Exact.Gap.greedy_ii
            e.Exact.Gap.greedy_copies
        else Printf.printf "greedy  failed to pipeline\n";
        print_status s
    | None ->
        (* Slice mode: the gap study over every tractable suite loop and
           the paper's three geometries under the chosen copy model; the
           geometries fix the cluster count, so -c plays no part. *)
        let geos =
          Exact.Gap.run ~budget ~cancel ~jobs:(effective_jobs jobs) ~seed ~n ~copy_model:model ()
        in
        let slice_n =
          match geos with g :: _ -> List.length g.Exact.Gap.entries | [] -> 0
        in
        Printf.printf "exact slice: %d of %d suite loops (<= %d registers), budget %d nodes\n"
          slice_n n Exact.Solve.slice_max_vregs budget;
        print_newline ();
        if verbose then
          List.iter
            (fun (g : Exact.Gap.geometry) ->
              let t =
                Util.Table.create
                  ~title:(Printf.sprintf "exact slice on %s" g.Exact.Gap.label)
                  ~header:
                    [
                      "loop"; "regs"; "greedy II"; "greedy cp"; "status"; "best II";
                      "best cp"; "lower"; "nodes";
                    ]
              in
              List.iter
                (fun (e : Exact.Gap.entry) ->
                  let s = e.Exact.Gap.solve in
                  let best_ii, best_cp =
                    match Exact.Solve.witness s with
                    | Some w ->
                        ( string_of_int w.Exact.Witness.ii,
                          string_of_int w.Exact.Witness.copies )
                    | None -> ("-", "-")
                  in
                  Util.Table.add_row t
                    [
                      e.Exact.Gap.loop_name;
                      string_of_int e.Exact.Gap.n_regs;
                      (if e.Exact.Gap.greedy_ii > 0 then string_of_int e.Exact.Gap.greedy_ii
                       else "-");
                      (if e.Exact.Gap.greedy_ii > 0 then
                         string_of_int e.Exact.Gap.greedy_copies
                       else "-");
                      Exact.Solve.status_name s.Exact.Solve.status;
                      best_ii;
                      best_cp;
                      string_of_int (Exact.Solve.lower s);
                      string_of_int s.Exact.Solve.stats.Exact.Search.nodes;
                    ])
                g.Exact.Gap.entries;
              print_string (Util.Table.render t);
              print_newline ())
            geos;
        print_string
          (Util.Table.render (Core.Report.table3 (List.map gap_row_of_geometry geos)));
        match json_out with
        | None -> ()
        | Some path ->
            write_file path (Obs.Json.to_string (json_of ~seed ~n ~budget geos) ^ "\n");
            Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:
         "Prove optimal II and bank assignment by branch-and-bound. With a $(i,LOOP): \
          solve that loop on one machine and print the (verified) claim. Without: run \
          the greedy-vs-optimal gap study over every suite loop small enough for \
          exhaustive search, on the paper's three geometries under the $(b,--model) \
          copy model (Table 3 of $(b,rbp report) is the embedded one); $(b,--clusters) \
          is ignored without a $(i,LOOP).")
    Term.(
      const run $ seed_arg $ opt_loop_arg $ clusters_arg $ model_arg $ budget_arg
      $ deadline_ms_arg $ suite_size_arg $ jobs_arg $ verbose_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* perfdiff                                                            *)

let perfdiff_cmd =
  let run old_path new_path ipc_rel_drop degradation_rise pct_drop p50_rise p95_rise
      p99_rise latency_floor_ms quiet =
    let read path =
      match read_file path with
      | Ok s -> s
      | Error e ->
          prerr_endline ("rbp: " ^ e);
          exit 2
    in
    let parse path text =
      match Core.Perfdiff.parse text with
      | Ok doc -> doc
      | Error e ->
          Printf.eprintf "rbp: %s: %s\n" path e;
          exit 2
    in
    let baseline = parse old_path (read old_path) in
    let current = parse new_path (read new_path) in
    let thresholds =
      {
        Core.Perfdiff.ipc_rel_drop;
        degradation_rise;
        pct_drop;
        latency_rel_rise = [ (0.50, p50_rise); (0.95, p95_rise); (0.99, p99_rise) ];
        latency_floor_ms;
      }
    in
    match Core.Perfdiff.diff ~thresholds ~baseline ~current () with
    | Error e ->
        Printf.eprintf "rbp: %s\n" e;
        exit 2
    | Ok findings ->
        let regressed = Core.Perfdiff.regressions findings in
        if quiet then
          print_string (Core.Perfdiff.render regressed)
        else print_string (Core.Perfdiff.render findings);
        (* Informational only: engine telemetry (jobs level, wall-time
           speedup, cache hits) never affects the exit code. *)
        (match Core.Perfdiff.engine_note ~baseline ~current with
        | Some note -> print_endline note
        | None -> ());
        if regressed <> [] then exit 1
  in
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json"
           ~doc:"Baseline rbp-bench/1 document.")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json"
           ~doc:"Candidate rbp-bench/1 document.")
  in
  let ipc_rel_drop =
    Arg.(
      value & opt float Core.Perfdiff.default_thresholds.Core.Perfdiff.ipc_rel_drop
      & info [ "ipc-drop" ] ~docv:"FRAC"
          ~doc:"Max tolerated relative drop of an IPC metric (default 0.02 = 2%).")
  in
  let degradation_rise =
    Arg.(
      value & opt float Core.Perfdiff.default_thresholds.Core.Perfdiff.degradation_rise
      & info [ "degradation-rise" ] ~docv:"PTS"
          ~doc:"Max tolerated absolute rise of a degradation mean, in points.")
  in
  let pct_drop =
    Arg.(
      value & opt float Core.Perfdiff.default_thresholds.Core.Perfdiff.pct_drop
      & info [ "pct-drop" ] ~docv:"PTS"
          ~doc:"Max tolerated absolute drop of the no-degradation share, in points.")
  in
  let latency_rise_default q =
    match
      List.assoc_opt q
        Core.Perfdiff.default_thresholds.Core.Perfdiff.latency_rel_rise
    with
    | Some v -> v
    | None -> infinity
  in
  let p50_rise =
    Arg.(
      value & opt float (latency_rise_default 0.50)
      & info [ "p50-rise" ] ~docv:"FRAC"
          ~doc:"Max tolerated relative rise of serve latency p50 (default 2.0 = 3x).")
  in
  let p95_rise =
    Arg.(
      value & opt float (latency_rise_default 0.95)
      & info [ "p95-rise" ] ~docv:"FRAC"
          ~doc:"Max tolerated relative rise of serve latency p95 (default 3.0 = 4x).")
  in
  let p99_rise =
    Arg.(
      value & opt float (latency_rise_default 0.99)
      & info [ "p99-rise" ] ~docv:"FRAC"
          ~doc:
            "Max tolerated relative rise of serve latency p99 — the tail gate (default \
             4.0 = 5x). Also applied to the degraded series' p99.")
  in
  let latency_floor_ms =
    Arg.(
      value
      & opt float Core.Perfdiff.default_thresholds.Core.Perfdiff.latency_floor_ms
      & info [ "latency-floor" ] ~docv:"MS"
          ~doc:
            "Absolute latency slack: a quantile rise below $(docv) milliseconds is \
             never a regression.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Print only regressed metrics (and the summary line).")
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Compare two rbp-bench/1 telemetry documents (BENCH_*.json) metric by metric \
          with regression thresholds. Host-dependent stage wall times are ignored, so a \
          checked-in baseline gates CI deterministically; serve latency quantiles (from \
          $(b,rbp bombard --json)) are gated with loose per-quantile rises when both \
          documents carry them. Exit codes: 0 no regression; 1 regression; 2 \
          parse/schema error or incomparable runs (different seed, loop count or config \
          set)")
    Term.(
      const run $ old_path $ new_path $ ipc_rel_drop $ degradation_rise $ pct_drop
      $ p50_rise $ p95_rise $ p99_rise $ latency_floor_ms $ quiet)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_cmd =
  let run seed name clusters model scheduler verbose =
    let loop = or_die (load_loop ~seed name) in
    let machine = or_die (machine_of ~clusters ~model) in
    let ddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop in
    let outcome =
      match scheduler with
      | Partition.Driver.Rau -> Sched.Modulo.ideal ~machine ddg
      | Partition.Driver.Swing -> Sched.Swing.ideal ~machine ddg
    in
    match outcome with
    | None ->
        prerr_endline "rbp: no feasible II found";
        exit 1
    | Some o ->
        Format.printf "%s: II=%d (MII %d)@." (Ir.Loop.name loop) o.Sched.Modulo.ii
          o.Sched.Modulo.mii;
        if verbose then
          Format.printf
            "effort: %d placement(s), %d eviction(s), %d II(s) tried, %d budget \
             exhaustion(s)@."
            o.Sched.Modulo.placements_tried o.Sched.Modulo.evictions o.Sched.Modulo.iis_tried
            o.Sched.Modulo.budget_exhausted;
        Format.printf "%a@." Sched.Kernel.pp o.Sched.Modulo.kernel
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Also print the scheduler's effort statistics: placements tried, evictions, \
             IIs tried and budget exhaustions.")
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:
         "Modulo-schedule one loop on the (monolithic view of the) chosen machine and \
          print the kernel, with per-run scheduler effort statistics under \
          $(b,--verbose)")
    Term.(const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ scheduler_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* rcg / ddg                                                           *)

let rcg_cmd =
  let run seed name clusters dot =
    let loop = or_die (load_loop ~seed name) in
    let g = Rcg.Build.of_loop ~machine:Mach.Machine.paper_ideal loop in
    if dot then begin
      let a = Partition.Greedy.partition ~banks:clusters g in
      print_string (Rcg.Graph.to_dot ~assignment:(fun r -> Partition.Assign.bank_opt a r) g)
    end
    else begin
      Format.printf "%a@." Rcg.Graph.pp g;
      Format.printf "components: %d@." (List.length (Rcg.Graph.components g))
    end
  in
  Cmd.v
    (Cmd.info "rcg" ~doc:"Build and print a loop's register component graph")
    Term.(const run $ seed_arg $ loop_arg $ clusters_arg $ dot_arg)

let ddg_cmd =
  let run seed name dot =
    let loop = or_die (load_loop ~seed name) in
    let ddg = Ddg.Graph.of_loop loop in
    if dot then print_string (Ddg.Graph.to_dot ddg)
    else Format.printf "%a@." Ddg.Graph.pp ddg
  in
  Cmd.v
    (Cmd.info "ddg" ~doc:"Build and print a loop's data dependence graph")
    Term.(const run $ seed_arg $ loop_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* alloc                                                               *)

let alloc_cmd =
  let run seed name clusters model regs =
    let loop = or_die (load_loop ~seed name) in
    let machine0 = or_die (machine_of ~clusters ~model) in
    let machine =
      Mach.Machine.make ~regs_per_bank:regs ~clusters
        ~fus_per_cluster:machine0.Mach.Machine.fus_per_cluster ~copy_model:model ()
    in
    let r =
      or_die (Result.map_error Verify.Stage_error.to_string (Partition.Driver.pipeline ~machine loop))
    in
    match
      Regalloc.Alloc.allocate_loop ~machine ~assignment:r.Partition.Driver.assignment
        r.Partition.Driver.rewritten
    with
    | Error e -> or_die (Error (Verify.Stage_error.to_string e))
    | Ok alloc ->
        Format.printf "allocated in %d round(s), %d spills@." alloc.Regalloc.Alloc.rounds
          alloc.Regalloc.Alloc.spill_count;
        Array.iteri
          (fun b p -> Format.printf "bank %d: pressure %d / %d registers@." b p regs)
          alloc.Regalloc.Alloc.pressure;
        Ir.Vreg.Map.iter
          (fun reg (bank, idx) ->
            Format.printf "  %-12s -> bank %d, reg %d@." (Ir.Vreg.to_string reg) bank idx)
          alloc.Regalloc.Alloc.mapping
  in
  let regs =
    Arg.(
      value & opt int 32
      & info [ "regs" ] ~docv:"K" ~doc:"Architectural registers per bank.")
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:"Partition, pipeline and Chaitin/Briggs-allocate one loop, reporting pressure")
    Term.(const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ regs)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_cmd =
  let run seed name clusters model =
    let loop = or_die (load_loop ~seed name) in
    let machine = or_die (machine_of ~clusters ~model) in
    let t =
      Util.Table.create
        ~title:(Printf.sprintf "Partitioners on %s, %s" (Ir.Loop.name loop)
                  machine.Mach.Machine.name)
        ~header:[ "partitioner"; "ideal II"; "II"; "degradation"; "copies"; "IPC" ]
    in
    let entry label partitioner =
      match Partition.Driver.pipeline ~partitioner ~machine loop with
      | Error e ->
          Util.Table.add_row t [ label; "-"; "-"; "FAILED: " ^ Verify.Stage_error.to_string e ]
      | Ok r ->
          Util.Table.add_row t
            [
              label;
              string_of_int r.Partition.Driver.ideal.Sched.Modulo.ii;
              string_of_int r.Partition.Driver.clustered.Sched.Modulo.ii;
              Util.Table.cell_float ~decimals:0 r.Partition.Driver.degradation;
              string_of_int r.Partition.Driver.n_copies;
              Util.Table.cell_float ~decimals:2 r.Partition.Driver.ipc_clustered;
            ]
    in
    entry "greedy (paper)" (Partition.Driver.Greedy Rcg.Weights.default);
    entry "greedy + refinement" (Partition.Refine.partitioner Rcg.Weights.default);
    entry "BUG" Partition.Driver.Bug;
    entry "UAS" Partition.Driver.Uas;
    entry "NE-style"
      (Partition.Driver.Custom (fun machine ddg _ -> Partition.Ne.partition ~machine ddg));
    Util.Table.print t
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare every partitioner on one loop")
    Term.(const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg)

(* ------------------------------------------------------------------ *)
(* sim                                                                 *)

let sim_cmd =
  let run seed name clusters model trips =
    let loop = or_die (load_loop ~seed name) in
    let machine = or_die (machine_of ~clusters ~model) in
    let r =
      or_die (Result.map_error Verify.Stage_error.to_string (Partition.Driver.pipeline ~machine loop))
    in
    let code =
      Sched.Expand.flatten ~kernel:r.Partition.Driver.clustered.Sched.Modulo.kernel
        ~loop:r.Partition.Driver.rewritten ~trips
    in
    let pre, steady, post = Sched.Sim.stage_counts code in
    Format.printf "expanded %d iterations: %d cycles (%d prelude / %d steady / %d postlude ops)@."
      trips code.Sched.Expand.total_cycles pre steady post;
    match Sched.Sim.run ~latency:machine.Mach.Machine.latency code with
    | Ok _ ->
        Format.printf "cycle-accurate simulation: OK (no latency violations)@.";
        Format.printf "speedup over sequential issue: %.2fx@."
          (Sched.Expand.speedup code ~latency:machine.Mach.Machine.latency
             ~loop:r.Partition.Driver.rewritten)
    | Error v ->
        Format.printf "VIOLATION at cycle %d, %s: %s@." v.Sched.Sim.cycle
          (Ir.Op.to_string v.Sched.Sim.op) v.Sched.Sim.what;
        exit 1
  in
  let trips =
    Arg.(value & opt int 8 & info [ "trips" ] ~docv:"N" ~doc:"Iterations to simulate.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Cycle-accurately simulate the partitioned software pipeline of one loop")
    Term.(const run $ seed_arg $ loop_arg $ clusters_arg $ model_arg $ trips)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

(* Stable order for machine-readable diagnostics: severity first, then
   the (code, stage, loc, message) tuple; exact duplicates collapse.
   Human output keeps pipeline order — it narrates the stages. *)
let sorted_diags diags =
  let sev (d : Verify.Diag.t) =
    match d.Verify.Diag.severity with
    | Verify.Diag.Error -> 0
    | Verify.Diag.Warning -> 1
    | Verify.Diag.Info -> 2
  in
  List.sort_uniq
    (fun (a : Verify.Diag.t) (b : Verify.Diag.t) ->
      let c = compare (sev a) (sev b) in
      if c <> 0 then c
      else
        compare
          (a.Verify.Diag.code, a.Verify.Diag.stage, a.Verify.Diag.loc, a.Verify.Diag.message)
          (b.Verify.Diag.code, b.Verify.Diag.stage, b.Verify.Diag.loc, b.Verify.Diag.message))
    diags

let diag_json (d : Verify.Diag.t) =
  let open Obs.Json in
  Obj
    ([
       ("severity", Str (Verify.Diag.severity_name d.Verify.Diag.severity));
       ("code", Str d.Verify.Diag.code);
       ("stage", Str (Verify.Diag.stage_name d.Verify.Diag.stage));
     ]
    @ (match d.Verify.Diag.loc with None -> [] | Some l -> [ ("loc", Str l) ])
    @ [ ("message", Str d.Verify.Diag.message) ])

let lint_cmd =
  let run seed name n clusters model regs strict jobs json =
    let machine0 = or_die (machine_of ~clusters ~model) in
    let machine =
      Mach.Machine.make ~regs_per_bank:regs ~clusters
        ~fus_per_cluster:machine0.Mach.Machine.fus_per_cluster ~copy_model:model ()
    in
    let lint_loop loop =
      match Partition.Driver.pipeline ~machine loop with
      | Error e ->
          [
            Verify.Diag.error Verify.Diag.Pipe ~code:e.Verify.Stage_error.code
              (Verify.Stage_error.to_string e);
          ]
      | Ok r -> (
          let ddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop in
          let rewritten = r.Partition.Driver.rewritten in
          let ddg' = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency rewritten in
          let stages =
            {
              (Verify.Pipeline.stages ~machine loop) with
              Verify.Pipeline.ideal = Some (ddg, r.Partition.Driver.ideal.Sched.Modulo.kernel);
              partition = Some (r.Partition.Driver.assignment, rewritten);
              clustered = Some (ddg', r.Partition.Driver.clustered.Sched.Modulo.kernel);
            }
          in
          match
            Regalloc.Alloc.allocate_loop ~machine
              ~assignment:r.Partition.Driver.assignment rewritten
          with
          | Error e ->
              Verify.Pipeline.run stages
              @ [
                  Verify.Diag.error Verify.Diag.Pipe ~code:e.Verify.Stage_error.code
                    (Verify.Stage_error.to_string e);
                ]
          | Ok alloc ->
              let stages =
                {
                  stages with
                  Verify.Pipeline.alloc =
                    Some
                      {
                        Verify.Pipeline.code = alloc.Regalloc.Alloc.code;
                        mapping = alloc.Regalloc.Alloc.mapping;
                        live_out = alloc.Regalloc.Alloc.live_out;
                      };
                }
              in
              Verify.Pipeline.run stages)
    in
    (* Returns whether this loop fails the lint. *)
    let emit ~name diags =
      if json then begin
        let open Obs.Json in
        print_endline
          (to_string
             (Obj
                [
                  ("loop", Str name);
                  ("diags", List (List.map diag_json (sorted_diags diags)));
                  ("summary", Str (Verify.Diag.summary diags));
                ]))
      end
      else begin
        List.iter (fun d -> print_endline (Verify.Diag.to_string d)) diags;
        Printf.printf "lint: %s: %s\n" name (Verify.Diag.summary diags)
      end;
      Verify.Diag.has_errors diags || (strict && diags <> [])
    in
    match name with
    | Some name -> (
        match load_loop ~seed name with
        | Error e ->
            if emit ~name [ Verify.Diag.error Verify.Diag.Ir ~code:"IR000" e ] then exit 1
        | Ok loop -> if emit ~name:(Ir.Loop.name loop) (lint_loop loop) then exit 1)
    | None ->
        let loops = Workload.Suite.loops ~seed ~n () in
        let tasks =
          Array.of_list (List.map (fun loop () -> lint_loop loop) loops)
        in
        let results = Engine.Pool.run ~jobs:(effective_jobs jobs) tasks in
        let failed = ref false in
        List.iteri
          (fun i loop ->
            let diags =
              match results.(i) with
              | Ok diags -> diags
              | Error exn ->
                  [
                    Verify.Diag.error Verify.Diag.Pipe ~code:"PIPE001"
                      (Printf.sprintf "lint crashed: %s" (Printexc.to_string exn));
                  ]
            in
            if emit ~name:(Ir.Loop.name loop) diags then failed := true)
          loops;
        if !failed then exit 1
  in
  let regs =
    Arg.(
      value & opt int 32
      & info [ "regs" ] ~docv:"K" ~doc:"Architectural registers per bank.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings (and infos) as fatal.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per loop (JSONL) instead of text; diagnostics are \
             sorted by severity then code and deduplicated.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the full pipeline with independent verification at every stage boundary \
          (IR shape, ideal and clustered modulo-schedule legality, operand bank-locality \
          and copy well-formedness, per-bank register allocation, independent dataflow \
          analysis of the DDGs), printing one-line diagnostics. With no LOOP the whole \
          suite is swept, sharded over $(b,-j) domains with byte-identical output. Exit \
          codes: 0 when no error-severity finding (and, with $(b,--strict), no finding \
          at all); 1 otherwise")
    Term.(
      const run $ seed_arg $ opt_loop_arg $ suite_size_arg $ clusters_arg $ model_arg $ regs
      $ strict $ jobs_arg $ json)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let run seed name n clusters model diff_ddg maxlive json jobs =
    let machine = or_die (machine_of ~clusters ~model) in
    let latency = machine.Mach.Machine.latency in
    let loops =
      match name with
      | Some name -> [ or_die (load_loop ~seed name) ]
      | None -> Workload.Suite.loops ~seed ~n ()
    in
    let analyze_loop loop =
      let lname = Ir.Loop.name loop in
      let summary, report = Analysis.Summary.report ~latency ~name:lname loop in
      let banks =
        if not maxlive then None
        else
          (* Exact per-bank pressure needs a bank assignment: partition
             the loop the way the pipeline would and measure the
             rewritten (copy-carrying) body. *)
          match Partition.Driver.pipeline ~machine loop with
          | Error e -> Some (Error (Verify.Stage_error.to_string e))
          | Ok r ->
              let live = Analysis.Liveness.of_loop r.Partition.Driver.rewritten in
              let assignment = r.Partition.Driver.assignment in
              Some
                (Ok
                   (Analysis.Liveness.per_bank_max_live live
                      ~banks:machine.Mach.Machine.clusters
                      ~bank_of:(fun v ->
                        match Ir.Vreg.Map.find_opt v assignment with
                        | Some b -> b
                        | None -> -1)))
      in
      (summary, report, banks)
    in
    let tasks = Array.of_list (List.map (fun loop () -> analyze_loop loop) loops) in
    let results = Engine.Pool.run ~jobs:(effective_jobs jobs) tasks in
    let errors = ref 0 and warnings = ref 0 and crashed = ref 0 in
    if not json then print_endline Analysis.Summary.header;
    List.iteri
      (fun i loop ->
        let lname = Ir.Loop.name loop in
        match results.(i) with
        | Error exn ->
            incr crashed;
            if json then
              print_endline
                (Obs.Json.to_string
                   (Obs.Json.Obj
                      [
                        ("loop", Obs.Json.Str lname);
                        ("error", Obs.Json.Str (Printexc.to_string exn));
                      ]))
            else Printf.printf "%s: analysis crashed: %s\n" lname (Printexc.to_string exn)
        | Ok (summary, report, banks) ->
            errors := !errors + summary.Analysis.Summary.diff_errors;
            warnings := !warnings + summary.Analysis.Summary.diff_warnings;
            if json then begin
              let base =
                match Analysis.Summary.to_json summary with
                | Obs.Json.Obj fields -> fields
                | j -> [ ("summary", j) ]
              in
              let findings =
                if not diff_ddg then []
                else
                  [
                    ( "findings",
                      Obs.Json.List
                        (List.map
                           (fun f -> diag_json (Verify.Analysis_check.finding_diag f))
                           report.Analysis.Validate.findings) );
                  ]
              in
              let bank_field =
                match banks with
                | None -> []
                | Some (Error e) -> [ ("bank_max_live", Obs.Json.Str e) ]
                | Some (Ok peaks) ->
                    [
                      ( "bank_max_live",
                        Obs.Json.List
                          (Array.to_list
                             (Array.map (fun v -> Obs.Json.Num (float_of_int v)) peaks))
                      );
                    ]
              in
              print_endline
                (Obs.Json.to_string (Obs.Json.Obj (base @ findings @ bank_field)))
            end
            else begin
              print_endline (Analysis.Summary.to_row summary);
              if diff_ddg then
                List.iter
                  (fun f ->
                    print_endline
                      ("  "
                      ^ Verify.Diag.to_string (Verify.Analysis_check.finding_diag f)))
                  report.Analysis.Validate.findings;
              match banks with
              | None -> ()
              | Some (Error e) ->
                  Printf.printf "  maxlive banks: unavailable (%s)\n" e
              | Some (Ok peaks) ->
                  Printf.printf "  maxlive banks[%d]:%s (rewritten body)\n"
                    (Array.length peaks)
                    (String.concat ""
                       (Array.to_list (Array.map (Printf.sprintf " %d") peaks)))
            end)
      loops;
    if not json then
      Printf.printf "analyze: %d loop%s, %d diff error%s, %d diff warning%s\n"
        (List.length loops)
        (if List.length loops = 1 then "" else "s")
        !errors
        (if !errors = 1 then "" else "s")
        !warnings
        (if !warnings = 1 then "" else "s");
    if !errors > 0 || !crashed > 0 then exit 1
  in
  let diff_ddg =
    Arg.(
      value & flag
      & info [ "diff-ddg" ]
          ~doc:
            "Print every translation-validation finding (the edge-by-edge diff between \
             the independently derived dependence set and the DDG), not just the \
             per-loop counts.")
  in
  let maxlive =
    Arg.(
      value & flag
      & info [ "maxlive" ]
          ~doc:
            "Also partition each loop and report exact per-bank MaxLive bounds of the \
             rewritten (copy-carrying) body.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per loop (JSONL) instead of the table; findings are \
             pre-sorted and deduplicated.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the independent dataflow analyses (cyclic liveness and MaxLive pressure \
          bounds, reaching definitions with iteration distances, value-range / \
          rematerialization, and the dependence analysis) over one loop or the whole \
          suite, translation-validating the DDG edge-by-edge. Suite mode shards over \
          $(b,-j) domains with byte-identical output. Exit 1 when any unsoundness \
          discrepancy (AN001/AN002) or analysis crash is found")
    Term.(
      const run $ seed_arg $ opt_loop_arg $ suite_size_arg $ clusters_arg $ model_arg
      $ diff_ddg $ maxlive $ json $ jobs_arg)

let stress_cmd =
  let run seed trials fault_rate no_fatal verbose jobs trace_out =
    with_trace trace_out @@ fun obs ->
    let s =
      Robust.Stress.run ?obs ~jobs ~job_clock:(fun _shard -> real_clock)
        ~include_fatal:(not no_fatal) ~fault_rate ~seed ~trials ()
    in
    print_endline (Robust.Stress.report ~verbose s);
    exit (Robust.Stress.exit_code s)
  in
  let trials =
    Arg.(
      value & opt int 200
      & info [ "trials"; "t" ] ~docv:"K" ~doc:"Number of fault-injected trials.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.9
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Probability that a trial injects a fault; the remaining trials exercise \
             the clean path.")
  in
  let no_fatal =
    Arg.(
      value & flag
      & info [ "no-fatal" ]
          ~doc:
            "Inject only transient (recoverable) stage corruptions; skip the fatal \
             faults (malformed IR, unallocatably small banks) whose contract is a \
             clean structured failure rather than recovery.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print one line per trial instead of only the non-clean trials.")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Deterministic fault-injection sweep over the workload suite: each trial draws \
          a loop, a clustered machine and a fault plan from the seed, runs the resilient \
          fallback-ladder driver, and audits the outcome with the independent verifier. \
          Same seed, same trial count: byte-identical report. Exit codes: 0 when every \
          trial produced verified code or failed cleanly with a structured diagnostic; \
          1 when a transient fault went unrecovered; 2 on a violation (an exception \
          escaped the driver, or emitted code failed re-verification)")
    Term.(
      const run $ seed_arg $ trials $ fault_rate $ no_fatal $ verbose $ jobs_arg
      $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)

let cache_cmd =
  let dir_arg =
    Arg.(
      value
      & opt string Engine.Cache.default_dir
      & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Cache directory.")
  in
  let stat_cmd =
    let run dir =
      let s = Engine.Cache.stat ~dir () in
      Printf.printf "%s: %d entries, %d bytes\n" dir s.Engine.Cache.entries
        s.Engine.Cache.bytes
    in
    Cmd.v
      (Cmd.info "stat" ~doc:"Report how many results the cache holds and their size")
      Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let n = Engine.Cache.clear ~dir () in
      Printf.printf "%s: removed %d entries\n" dir n
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cached result (the directory is kept)")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the content-addressed result cache used by $(b,rbp \
          experiment), $(b,rbp report) and the bench harness. Entries are addressed by \
          a digest of the loop body, the machine description and the pipeline options, \
          so stale hits are impossible: changed inputs are a different address")
    [ stat_cmd; clear_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / bombard / call                                              *)

let addr_of_string_arg s = Serve.Wire.addr_of_string s

let addr_pos_arg =
  let doc =
    "Service address: $(b,unix:PATH), $(b,tcp:HOST:PORT), a bare $(b,HOST:PORT), or a \
     bare socket path."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR" ~doc)

let faults_conv =
  let parse s =
    match s with
    | "all" -> Ok Robust.Inject.all_service
    | "none" -> Ok []
    | s ->
        let names = String.split_on_char ',' s in
        List.fold_left
          (fun acc n ->
            match acc with
            | Error _ as e -> e
            | Ok fs -> (
                match Robust.Inject.service_fault_of_name (String.trim n) with
                | Some f -> Ok (fs @ [ f ])
                | None -> Error (`Msg (Printf.sprintf "unknown service fault %S" n))))
          (Ok []) names
  in
  let print ppf fs =
    Format.pp_print_string ppf
      (match fs with
      | [] -> "none"
      | fs -> String.concat "," (List.map Robust.Inject.service_fault_name fs))
  in
  Arg.conv (parse, print)

let log_level_conv =
  let parse s =
    match Obs.Log.level_of_name s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown log level %S" s))
  in
  let print ppf l = Format.pp_print_string ppf (Obs.Log.level_name l) in
  Arg.conv (parse, print)

let serve_cmd =
  let run listen workers queue_limit deadline_ms max_retries cache_dir no_cache
      idle_timeout max_frame faults allow_shutdown log_level log_json flight_capacity
      flight_anomalies span_cap flight_out deterministic =
    let addr = or_die (addr_of_string_arg listen) in
    let cache = cache_of ~no_cache ~cache_dir in
    (* The deterministic daemon pins everything a transcript could see:
       a frozen request clock (all timings 0; deadlines never fire), a
       seed-0 trace-id stream and a fake-stepped logger clock. *)
    let clock = if deterministic then Obs.Clock.frozen 0.0 else real_clock in
    let logger =
      let format = if log_json then Obs.Log.Jsonl else Obs.Log.Text in
      let log_clock = if deterministic then Obs.Clock.fake () else real_clock in
      Obs.Log.make ~level:log_level ~format ~clock:log_clock ()
    in
    let trace_seed = if deterministic then Some 0 else None in
    let cfg =
      Serve.Server.config ~workers ~queue_limit ?default_deadline_ms:deadline_ms
        ~max_retries ?cache ~idle_timeout_s:idle_timeout ~max_frame
        ~faults_enabled:faults ~allow_shutdown ~clock ~logger ?trace_seed
        ~flight_capacity ~flight_anomaly_capacity:flight_anomalies ~span_cap
        ?flight_out addr
    in
    exit (Serve.Server.run cfg)
  in
  let listen =
    Arg.(
      value
      & opt string "unix:/tmp/rbp-serve.sock"
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), a bare $(b,HOST:PORT) \
             or a bare socket path.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers"; "w" ] ~docv:"N" ~doc:"Worker domains compiling requests.")
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit"; "q" ] ~docv:"N"
          ~doc:
            "Admission bound: compile requests beyond $(docv) queued jobs are shed with \
             a structured $(b,overload) reply carrying a retry-after quote.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Default per-request wall-clock deadline in milliseconds, applied when a \
             request does not name its own. Expired requests are answered with a \
             structured timeout, never hung.")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Worker crashes tolerated per request before it is quarantined and answered \
             with $(b,SRV003).")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"S"
          ~doc:
            "Total per-frame read budget in seconds. The budget is not reset by \
             progress, so slow-loris clients dribbling bytes still run out.")
  in
  let max_frame =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted request frame.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Honor poison fault markers in requests (worker-crash injection). For the \
             bombardment harness and tests only.")
  in
  let allow_shutdown =
    Arg.(
      value & flag
      & info [ "allow-shutdown" ]
          ~doc:"Honor the $(b,shutdown) op (otherwise it is a bad frame).")
  in
  let log_level =
    Arg.(
      value
      & opt log_level_conv Obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Log verbosity: $(b,debug), $(b,info), $(b,warn) or $(b,error). Per-request \
             lines (admission, delivery, anomalies) are $(b,debug); lifecycle lines are \
             $(b,info).")
  in
  let log_json =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:
            "Emit JSONL log lines ($(b,ts)/$(b,level)/$(b,msg)/$(b,trace_id) plus \
             per-site fields) instead of the bare-message text format.")
  in
  let flight_capacity =
    Arg.(
      value
      & opt int Serve.Flight.default_capacity
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Completed requests retained by the flight recorder.")
  in
  let flight_anomalies =
    Arg.(
      value
      & opt int Serve.Flight.default_anomaly_capacity
      & info [ "flight-anomalies" ] ~docv:"N"
          ~doc:
            "Anomalies (timeouts, quarantines, overload sheds) retained in the \
             separate ring bursts cannot evict.")
  in
  let span_cap =
    Arg.(
      value
      & opt int Serve.Flight.default_span_cap
      & info [ "span-cap" ] ~docv:"N"
          ~doc:"Spans retained per flight entry and returned per traced reply.")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:"Write a final rbp-flight/1 dump to $(docv) during the shutdown drain.")
  in
  let deterministic =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Pin every observable timestamp and id: frozen request clock, fixed \
             trace-id seed, fake-stepped logger clock. For pinned transcripts and \
             tests.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant pipelining compilation daemon: newline-delimited JSON \
          over a Unix or TCP socket, bounded admission with explicit backpressure, \
          per-request deadlines with cooperative cancellation, cached repeat answers, \
          and a supervisor that restarts crashed worker domains and quarantines poison \
          requests. Every admitted request is answered — including during a SIGTERM \
          drain. Exit codes: 0 clean shutdown, 1 listen failure")
    Term.(
      const run $ listen $ workers $ queue_limit $ deadline $ max_retries $ cache_dir_arg
      $ no_cache_arg $ idle_timeout $ max_frame $ faults $ allow_shutdown $ log_level
      $ log_json $ flight_capacity $ flight_anomalies $ span_cap $ flight_out
      $ deterministic)

let bombard_cmd =
  let run addr clients loops seed clusters model deadline_ms faults fault_rate retries
      timeout check trace_sample json_out quiet =
    let addr = or_die (addr_of_string_arg addr) in
    let log = if quiet then ignore else prerr_endline in
    let cfg =
      Serve.Bombard.config ~clients ~loops ~seed ~clusters ~model ?deadline_ms ~faults
        ~fault_rate ~max_retries:retries ~timeout_s:timeout ~check ~trace_sample ~log
        addr
    in
    let r = Serve.Bombard.run cfg in
    print_string (Serve.Bombard.render r);
    (match json_out with
    | None -> ()
    | Some path ->
        write_file path (Obs.Json.to_string (Serve.Bombard.to_json r) ^ "\n"));
    exit (Serve.Bombard.exit_code r)
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients"; "k" ] ~docv:"K" ~doc:"Concurrent client threads.")
  in
  let loops =
    Arg.(
      value & opt int 0
      & info [ "loops"; "n" ] ~docv:"N"
          ~doc:"Replay the first $(docv) suite loops (0 = the whole 211-loop suite).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Deadline attached to every scored request.")
  in
  let faults =
    Arg.(
      value & opt faults_conv []
      & info [ "faults" ] ~docv:"LIST"
          ~doc:
            "Service faults to inject before each scored request: $(b,all), $(b,none), \
             or a comma-separated subset of $(b,garbage-frame), $(b,slow-loris), \
             $(b,disconnect), $(b,deadline-storm), $(b,crash-worker).")
  in
  let fault_rate =
    Arg.(
      value & opt float 1.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-(loop, fault) firing probability, drawn from the seeded stream.")
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Backoff budget per scored request: overload sheds and reconnects beyond \
             $(docv) mark the request unanswered (a FAIL).")
  in
  let timeout =
    Arg.(
      value & opt float 120.0
      & info [ "timeout" ] ~docv:"S" ~doc:"Client-side wait per reply.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Recompute every served result through the local ladder and fail on any \
             ideal-II / clustered-II / copy-count / rung disagreement.")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Request the full span tree on every $(docv)th scored compile (0 = never). \
             Under $(b,--check) the returned tree must parse, echo the client's trace \
             id, and agree with the reply's ladder rung.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write an rbp-bench/1 report (accepted by $(b,rbp perfdiff)) with \
             service latency telemetry to $(docv).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the per-loop progress lines.")
  in
  Cmd.v
    (Cmd.info "bombard"
       ~doc:
         "Replay the workload suite against a live $(b,rbp serve) daemon from \
          concurrent clients, optionally injecting service-level faults (garbage \
          frames, slow-loris dribbles, mid-request disconnects, deadline storms, \
          worker-crash poison) before each scored request. Scored requests retry \
          overload sheds with jittered exponential backoff. Exit codes: 0 when every \
          request was answered with no protocol errors or metric mismatches; 1 \
          otherwise")
    Term.(
      const run $ addr_pos_arg $ clients $ loops $ seed_arg $ clusters_arg $ model_arg
      $ deadline $ faults $ fault_rate $ retries $ timeout $ check $ trace_sample
      $ json_out $ quiet)

let top_cmd =
  let run addr interval once json prom retry_for timeout =
    if json && prom then begin
      prerr_endline "rbp top: --json and --prom are mutually exclusive";
      exit 2
    end;
    let addr = or_die (addr_of_string_arg addr) in
    (* One short-lived connection per poll: a daemon restart between
       refreshes is then just another sample, not a dead dashboard. *)
    let fetch () =
      match Serve.Client.connect ~retry_for addr with
      | Error e -> Error e
      | Ok c ->
          let r =
            match Serve.Client.request ~timeout_s:timeout c Serve.Proto.Metrics with
            | Ok (Serve.Proto.Metrics_reply m) -> Ok m
            | Ok reply ->
                Error
                  (Printf.sprintf "unexpected %S reply to the metrics request"
                     (Serve.Proto.status_of_reply reply))
            | Error e -> Error e
          in
          Serve.Client.close c;
          r
    in
    let show m =
      if json then Ok (print_endline (Obs.Json.to_string m))
      else
        match Serve.Metrics.of_json m with
        | Error _ as e -> e
        | Ok t ->
            print_string (if prom then Serve.Metrics.prometheus t else Serve.Metrics.render t);
            Ok ()
    in
    let step () =
      match Result.bind (fetch ()) show with
      | Ok () -> flush stdout
      | Error e ->
          prerr_endline ("rbp top: " ^ e);
          exit 1
    in
    if once then step ()
    else
      let rec loop () =
        if not (json || prom) then print_string "\027[2J\027[H";
        step ();
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"S" ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print one snapshot and exit instead of refreshing.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw rbp-metrics/1 document instead of the dashboard.")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Print the Prometheus text exposition (stable sorted metric families) \
             instead of the dashboard.")
  in
  let retry_for =
    Arg.(
      value & opt float 5.0
      & info [ "retry-for" ] ~docv:"S"
          ~doc:"Keep retrying a refused connection for $(docv) seconds.")
  in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"S" ~doc:"Wait per reply.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live metrics dashboard for a running $(b,rbp serve) daemon: latency quantiles \
          (queue/compile/total and per ladder rung), rolling request/overload/result \
          rates over 10s and 60s windows, and the counter table, polled through the \
          $(b,metrics) op. $(b,--once) with $(b,--json) or $(b,--prom) is the \
          scriptable scrape mode. Exit codes: 0 clean; 1 connection or protocol \
          failure")
    Term.(const run $ addr_pos_arg $ interval $ once $ json $ prom $ retry_for $ timeout)

let flight_cmd =
  let run addr id anomalies json retry_for timeout =
    let addr = or_die (addr_of_string_arg addr) in
    let doc =
      match Serve.Client.connect ~retry_for addr with
      | Error e -> Error e
      | Ok c ->
          let r =
            match
              Serve.Client.request ~timeout_s:timeout c
                (Serve.Proto.Flight { id; anomalies })
            with
            | Ok (Serve.Proto.Flight_reply f) -> Ok f
            | Ok reply ->
                Error
                  (Printf.sprintf "unexpected %S reply to the flight request"
                     (Serve.Proto.status_of_reply reply))
            | Error e -> Error e
          in
          Serve.Client.close c;
          r
    in
    let shown =
      Result.bind doc (fun f ->
          if json then Ok (print_endline (Obs.Json.to_string f))
          else Result.map print_string (Serve.Flight.render f))
    in
    match shown with
    | Ok () -> ()
    | Error e ->
        prerr_endline ("rbp flight: " ^ e);
        exit 1
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"TRACE_ID"
          ~doc:"Filter both rings down to the entries carrying $(docv).")
  in
  let anomalies =
    Arg.(
      value & flag
      & info [ "anomalies" ]
          ~doc:
            "Dump only the anomaly ring (timeouts, quarantines, overload sheds) — the \
             entries a burst of healthy traffic cannot evict.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw rbp-flight/1 document instead of the tables.")
  in
  let retry_for =
    Arg.(
      value & opt float 5.0
      & info [ "retry-for" ] ~docv:"S"
          ~doc:"Keep retrying a refused connection for $(docv) seconds.")
  in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"S" ~doc:"Wait per reply.")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Dump a running daemon's flight recorder: the last completed compile requests \
          (trace id, outcome, rung, latencies, attempt trace, truncated span tree) and \
          the separately-retained anomaly ring, through the $(b,flight) op. \
          $(b,--id) narrows to one request's journey; $(b,--anomalies) is the \
          post-mortem view. Exit codes: 0 clean; 1 connection or protocol failure")
    Term.(const run $ addr_pos_arg $ id $ anomalies $ json $ retry_for $ timeout)

(* A reply line as sorted key=value pairs: stable for scripts that would
   otherwise parse labeled JSON by position. Nested values stay JSON. *)
let kv_of_reply_line line =
  let plain s =
    s <> ""
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | ':' | '/' | '-' -> true
           | _ -> false)
         s
  in
  match Obs.Json.of_string line with
  | Ok (Obs.Json.Obj kvs) ->
      kvs
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (k, v) ->
             let rendered =
               match v with
               | Obs.Json.Str s when plain s -> s
               | v -> Obs.Json.to_string v
             in
             k ^ "=" ^ rendered)
      |> String.concat " "
  | Ok _ | Error _ -> line

let call_cmd =
  let run addr frames from_stdin retry_for timeout kv json =
    if kv && json then begin
      prerr_endline "rbp call: --kv and --json are mutually exclusive";
      exit 2
    end;
    let addr = or_die (addr_of_string_arg addr) in
    let client = or_die (Serve.Client.connect ~retry_for addr) in
    let frames =
      if from_stdin then
        let rec read acc =
          match input_line stdin with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        read []
      else frames
    in
    let failed = ref false in
    List.iter
      (fun frame ->
        match Serve.Client.send_line client frame with
        | Error e ->
            prerr_endline ("rbp call: " ^ e);
            failed := true
        | Ok () -> (
            match Serve.Client.recv_line ~timeout_s:timeout client with
            | Error e ->
                prerr_endline ("rbp call: " ^ e);
                failed := true
            | Ok reply ->
                print_endline (if kv then kv_of_reply_line reply else reply)))
      frames;
    Serve.Client.close client;
    exit (if !failed then 1 else 0)
  in
  let frames =
    Arg.(
      value
      & pos_right 0 string []
      & info [] ~docv:"FRAME" ~doc:"Raw JSON request frames to send, one reply each.")
  in
  let from_stdin =
    Arg.(
      value & flag
      & info [ "stdin" ] ~doc:"Read request frames from standard input instead.")
  in
  let retry_for =
    Arg.(
      value & opt float 5.0
      & info [ "retry-for" ] ~docv:"S"
          ~doc:
            "Keep retrying a refused connection for $(docv) seconds — how scripts wait \
             for a daemon that is still binding its socket.")
  in
  let timeout =
    Arg.(
      value & opt float 60.0
      & info [ "timeout" ] ~docv:"S" ~doc:"Wait per reply.")
  in
  let kv =
    Arg.(
      value & flag
      & info [ "kv" ]
          ~doc:
            "Render each reply as sorted $(b,key=value) pairs on one line (latency as \
             $(b,queue_ms=)/$(b,compile_ms=)/$(b,total_ms=), nested values as JSON), so \
             scripts match fields by name instead of position.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print raw JSON reply lines (the default; explicit for scripts).")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send raw protocol frames to a running $(b,rbp serve) daemon and print the \
          reply lines — raw JSON by default ($(b,--json)), or labeled $(b,--kv) pairs. \
          The scriptable probe the cram tests and smoke checks use. Exit codes: 0 when \
          every frame got a reply; 1 on any transport failure")
    Term.(const run $ addr_pos_arg $ frames $ from_stdin $ retry_for $ timeout $ kv $ json)

(* ------------------------------------------------------------------ *)

let main =
  let doc = "register assignment for software pipelining with partitioned register banks" in
  Cmd.group
    (Cmd.info "rbp" ~version:"1.0" ~doc)
    [ list_cmd; show_cmd; pipeline_cmd; trace_cmd; explain_cmd; report_cmd; exact_cmd;
      perfdiff_cmd;
      schedule_cmd; compare_cmd; rcg_cmd; ddg_cmd; alloc_cmd; lint_cmd; analyze_cmd;
      stress_cmd;
      sim_cmd; cache_cmd; serve_cmd; bombard_cmd; call_cmd;
      top_cmd; flight_cmd ]

let () = exit (Cmd.eval main)
