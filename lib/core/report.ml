let table1 ~ideal_ipc runs =
  let t =
    Util.Table.create ~title:"Table 1. IPC of Clustered Software Pipelines"
      ~header:("Model" :: List.map (fun (r : Experiment.run) -> r.config.label) runs)
  in
  Util.Table.add_row t
    ("Ideal" :: List.map (fun _ -> Util.Table.cell_float ideal_ipc) runs);
  Util.Table.add_row t
    ("Clustered"
    :: List.map
         (fun (r : Experiment.run) ->
           Util.Table.cell_float (Metrics.mean_ipc_clustered r.metrics))
         runs);
  t

let table2 runs =
  let t =
    Util.Table.create ~title:"Table 2. Degradation Over Ideal Schedules - Normalized"
      ~header:("Average" :: List.map (fun (r : Experiment.run) -> r.config.label) runs)
  in
  Util.Table.add_row t
    ("Arithmetic Mean"
    :: List.map
         (fun (r : Experiment.run) ->
           Util.Table.cell_float ~decimals:0 (Metrics.arithmetic_mean_degradation r.metrics))
         runs);
  Util.Table.add_row t
    ("Harmonic Mean"
    :: List.map
         (fun (r : Experiment.run) ->
           Util.Table.cell_float ~decimals:0 (Metrics.harmonic_mean_degradation r.metrics))
         runs);
  t

let figure_histogram embedded copy_unit ~title =
  let t = Util.Table.create ~title ~header:("Degradation" :: Metrics.histogram_labels) in
  let row label (run : Experiment.run) =
    let percents = Util.Stats.histogram_percent (Metrics.degradation_histogram run.metrics) in
    Util.Table.add_row t
      (label :: (Array.to_list percents |> List.map (Util.Table.cell_float ~decimals:1)))
  in
  row "Embedded" embedded;
  row "Copy Unit" copy_unit;
  t

let to_csv runs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "config,loop,ops,ideal_ii,clustered_ii,degradation,ipc_ideal,ipc_clustered,copies\n";
  List.iter
    (fun (r : Experiment.run) ->
      List.iter
        (fun (m : Metrics.loop_metrics) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%d,%d,%.2f,%.3f,%.3f,%d\n" r.config.label
               m.Metrics.name m.Metrics.n_ops m.Metrics.ideal_ii m.Metrics.clustered_ii
               m.Metrics.degradation m.Metrics.ipc_ideal m.Metrics.ipc_clustered
               m.Metrics.n_copies))
        r.metrics)
    runs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Markdown paper tables (EXPERIMENTS.md Tables 1-2, byte-identical)    *)

(* The paper rows are constants from Hiser/Carr/Sweany/Beaty Tables 1-2;
   the "ours" rows come from the runs. Column layout (including the
   hand-aligned header padding) is pinned to EXPERIMENTS.md so that
   `rbp report -f md` regenerates those sections byte-for-byte. *)
let paper_ideal_ipc = 8.6
let paper_clustered_ipc = [ 9.3; 6.2; 8.4; 7.5; 6.9; 6.8 ]
let paper_arith = [ 111.; 150.; 126.; 122.; 162.; 133. ]
let paper_harm = [ 109.; 127.; 119.; 115.; 138.; 124. ]

let table1_heading = "## Table 1 — IPC of clustered software pipelines"

let table2_heading =
  "## Table 2 — degradation over ideal schedules, normalized (100 = ideal)"

let md_row ~label_width label cell values =
  Printf.sprintf "| %-*s | %s |" label_width label
    (String.concat " | " (List.map cell values))

let table1_md ~ideal_ipc runs =
  let cell = Printf.sprintf "%.1f" in
  let row = md_row ~label_width:17 in
  String.concat "\n"
    [
      "| Model     | 2×8 E | 2×8 C | 4×4 E | 4×4 C | 8×2 E | 8×2 C |";
      "|-----------|-------|-------|-------|-------|-------|-------|";
      row "Ideal (paper)" cell (List.map (fun _ -> paper_ideal_ipc) runs);
      row "Ideal (ours)" cell (List.map (fun _ -> ideal_ipc) runs);
      row "Clustered (paper)" cell paper_clustered_ipc;
      row "Clustered (ours)" cell
        (List.map (fun (r : Experiment.run) -> Metrics.mean_ipc_clustered r.metrics) runs);
    ]

let table2_md runs =
  let cell = Printf.sprintf "%.0f" in
  let row = md_row ~label_width:13 in
  let arith =
    List.map (fun (r : Experiment.run) -> Metrics.arithmetic_mean_degradation r.metrics) runs
  in
  let harm =
    List.map (fun (r : Experiment.run) -> Metrics.harmonic_mean_degradation r.metrics) runs
  in
  String.concat "\n"
    [
      "| Mean | 2×8 E | 2×8 C | 4×4 E | 4×4 C | 8×2 E | 8×2 C |";
      "|------|-------|-------|-------|-------|-------|-------|";
      row "Arith (paper)" cell paper_arith;
      row "Arith (ours)" cell arith;
      row "Harm (paper)" cell paper_harm;
      row "Harm (ours)" cell harm;
    ]

type gap_row = {
  gap_label : string;
  gap_loops : int;
  gap_optimal : int;
  gap_bound : int;
  gap_exhausted : int;
  gap_greedy_optimal : int;
  gap_mean_greedy_ii : float;
  gap_mean_exact_ii : float;
  gap_mean_greedy_copies : float;
  gap_mean_exact_copies : float;
}

let table3_heading =
  "## Table 3 — greedy heuristic vs. provably optimal bank assignment (exact slice)"

let table3_md rows =
  let line (r : gap_row) =
    (* "-" where a mean has no population: nothing proven optimal means
       there is no like-for-like set to average over. *)
    let f2 v = if r.gap_optimal = 0 then "-" else Printf.sprintf "%.2f" v in
    let pct =
      if r.gap_loops = 0 then "-"
      else
        Printf.sprintf "%.1f"
          (100.0 *. float_of_int r.gap_greedy_optimal /. float_of_int r.gap_loops)
    in
    Printf.sprintf "| %-8s | %5d | %7d | %5d | %9d | %12s | %9s | %8s | %13s | %12s |"
      r.gap_label r.gap_loops r.gap_optimal r.gap_bound r.gap_exhausted pct
      (f2 r.gap_mean_greedy_ii) (f2 r.gap_mean_exact_ii)
      (f2 r.gap_mean_greedy_copies) (f2 r.gap_mean_exact_copies)
  in
  String.concat "\n"
    ([
       "| Geometry | Loops | Optimal | Bound | Exhausted | Greedy-opt % | Greedy II | Exact II | Greedy copies | Exact copies |";
       "|----------|-------|---------|-------|-----------|--------------|-----------|----------|---------------|--------------|";
     ]
    @ List.map line rows)

let table3 rows =
  let t =
    Util.Table.create ~title:"Table 3: greedy vs. provably optimal (exact slice)"
      ~header:
        [
          "geometry"; "loops"; "optimal"; "bound"; "exhausted"; "greedy-opt %";
          "greedy II"; "exact II"; "greedy copies"; "exact copies";
        ]
  in
  List.iter
    (fun (r : gap_row) ->
      let f2 v = if r.gap_optimal = 0 then "-" else Printf.sprintf "%.2f" v in
      let pct =
        if r.gap_loops = 0 then "-"
        else
          Printf.sprintf "%.1f"
            (100.0 *. float_of_int r.gap_greedy_optimal /. float_of_int r.gap_loops)
      in
      Util.Table.add_row t
        [
          r.gap_label; string_of_int r.gap_loops; string_of_int r.gap_optimal;
          string_of_int r.gap_bound; string_of_int r.gap_exhausted; pct;
          f2 r.gap_mean_greedy_ii; f2 r.gap_mean_exact_ii;
          f2 r.gap_mean_greedy_copies; f2 r.gap_mean_exact_copies;
        ])
    rows;
  t

let paper_tables_md ?gap ~ideal_ipc runs =
  String.concat "\n"
    ([
       table1_heading; ""; table1_md ~ideal_ipc runs; "";
       table2_heading; ""; table2_md runs; "";
     ]
    @ match gap with
      | None | Some [] -> []
      | Some rows -> [ table3_heading; ""; table3_md rows; "" ])

type engine_telemetry = { jobs : int; cache_hits : int; wall_s : float }

let paper_tables_json ?engine ~seed ~loops ~ideal_ipc runs =
  let num x = Obs.Json.Num x in
  let int_num x = Obs.Json.Num (float_of_int x) in
  let config_json (r : Experiment.run) =
    Obs.Json.Obj
      [
        ("label", Obs.Json.Str r.config.label);
        ("clusters", int_num r.config.clusters);
        ("copy_model", Obs.Json.Str (Mach.Machine.copy_model_name r.config.copy_model));
        ("loops_ok", int_num (List.length r.metrics));
        ("failures", int_num (List.length r.failures));
        ("mean_ipc_clustered", num (Metrics.mean_ipc_clustered r.metrics));
        ("arith_mean_degradation", num (Metrics.arithmetic_mean_degradation r.metrics));
        ("harmonic_mean_degradation", num (Metrics.harmonic_mean_degradation r.metrics));
        ("pct_no_degradation", num (Metrics.pct_no_degradation r.metrics));
      ]
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.Str "rbp-bench/1");
       ("seed", int_num seed);
       ("loops", int_num loops);
       ("ideal_ipc", num ideal_ipc);
       ("configs", Obs.Json.List (List.map config_json runs));
     ]
    @
    match engine with
    | None -> []
    | Some e ->
        [
          ("jobs", int_num e.jobs); ("cache_hits", int_num e.cache_hits);
          ("wall_s", num e.wall_s);
        ])

let contains_block ~block text =
  (* Naive substring search is fine: blocks are a few hundred bytes and
     the document a few KB. *)
  let bl = String.length block and tl = String.length text in
  let rec go i = i + bl <= tl && (String.sub text i bl = block || go (i + 1)) in
  bl = 0 || go 0

let check_tables_in ?gap ~ideal_ipc runs text =
  let block1 =
    String.concat "\n" [ table1_heading; ""; table1_md ~ideal_ipc runs; "" ]
  in
  let block2 = String.concat "\n" [ table2_heading; ""; table2_md runs; "" ] in
  let missing = ref [] in
  if not (contains_block ~block:block1 text) then missing := "Table 1" :: !missing;
  if not (contains_block ~block:block2 text) then missing := "Table 2" :: !missing;
  (match gap with
  | None | Some [] -> ()
  | Some rows ->
      let block3 = String.concat "\n" [ table3_heading; ""; table3_md rows; "" ] in
      if not (contains_block ~block:block3 text) then missing := "Table 3" :: !missing);
  match List.rev !missing with
  | [] -> Ok ()
  | m -> Error (String.concat ", " m)

let failures_summary runs =
  let buf = Buffer.create 128 in
  List.iter
    (fun (r : Experiment.run) ->
      List.iter
        (fun (name, err) ->
          Buffer.add_string buf
            (Printf.sprintf "  [%s] %s: %s\n" r.config.label name
               (Verify.Stage_error.to_string err)))
        r.failures)
    runs;
  if Buffer.length buf = 0 then "  (none)\n" else Buffer.contents buf
