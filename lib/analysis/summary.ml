type t = {
  name : string;
  ops : int;
  max_live : int;
  class_max_live : (Mach.Rclass.t * int) list;
  dead : int;
  constants : int;
  remat : int;
  analysis_edges : int;
  ddg_edges : int;
  matched : int;
  diff_errors : int;
  diff_warnings : int;
  iterations : int;
  widenings : int;
}

let class_index cls =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if Mach.Rclass.equal c cls then i else go (i + 1) rest
  in
  go 0 Mach.Rclass.all

let report ?latency ~name loop =
  let live = Liveness.of_loop loop in
  let vr = Valrange.of_loop loop in
  let dep = Depan.of_loop ?latency loop in
  let ddg = Ddg.Graph.of_loop ?latency loop in
  let diff = Validate.run dep ddg in
  let classes = Mach.Rclass.all in
  let per_class =
    Liveness.per_bank_max_live live ~banks:(List.length classes)
      ~bank_of:(fun r -> class_index (Ir.Vreg.cls r))
  in
  let errors, warnings =
    List.fold_left
      (fun (e, w) f -> if Validate.is_error f then (e + 1, w) else (e, w + 1))
      (0, 0) diff.Validate.findings
  in
  ( {
      name;
      ops = List.length (Ir.Loop.ops loop);
      max_live = Liveness.max_live live;
      class_max_live = List.mapi (fun i c -> (c, per_class.(i))) classes;
      dead = List.length (Liveness.dead_ops ~live loop);
      constants = List.length (Valrange.constant_ops loop vr);
      remat = List.length (Valrange.remat_candidates loop vr);
      analysis_edges = diff.Validate.analysis_edges;
      ddg_edges = diff.Validate.ddg_edges;
      matched = diff.Validate.matched;
      diff_errors = errors;
      diff_warnings = warnings;
      iterations =
        live.Liveness.stats.Solver.iterations
        + vr.Valrange.stats.Solver.iterations
        + dep.Depan.stats.Solver.iterations;
      widenings =
        live.Liveness.stats.Solver.widenings
        + vr.Valrange.stats.Solver.widenings
        + dep.Depan.stats.Solver.widenings;
    },
    diff )

let of_loop ?latency ~name loop = fst (report ?latency ~name loop)

let to_json t =
  let open Obs.Json in
  Obj
    ([
       ("loop", Str t.name);
       ("ops", Num (float_of_int t.ops));
       ("max_live", Num (float_of_int t.max_live));
     ]
    @ List.map
        (fun (c, v) ->
          ( "max_live_" ^ String.lowercase_ascii (Mach.Rclass.to_string c),
            Num (float_of_int v) ))
        t.class_max_live
    @ [
        ("dead", Num (float_of_int t.dead));
        ("constants", Num (float_of_int t.constants));
        ("remat", Num (float_of_int t.remat));
        ("analysis_edges", Num (float_of_int t.analysis_edges));
        ("ddg_edges", Num (float_of_int t.ddg_edges));
        ("matched", Num (float_of_int t.matched));
        ("diff_errors", Num (float_of_int t.diff_errors));
        ("diff_warnings", Num (float_of_int t.diff_warnings));
        ("iterations", Num (float_of_int t.iterations));
        ("widenings", Num (float_of_int t.widenings));
      ])

let header =
  Printf.sprintf "%-14s %4s %8s %8s %8s %5s %6s %6s %7s %6s %5s" "loop" "ops"
    "maxlive" "live/int" "live/flt" "dead" "remat" "edges" "matched" "diff"
    "iters"

let to_row t =
  let cls c =
    match List.find_opt (fun (k, _) -> Mach.Rclass.equal k c) t.class_max_live with
    | Some (_, v) -> v
    | None -> 0
  in
  let diff =
    if t.diff_errors > 0 then Printf.sprintf "E%d" t.diff_errors
    else if t.diff_warnings > 0 then Printf.sprintf "W%d" t.diff_warnings
    else "ok"
  in
  Printf.sprintf "%-14s %4d %8d %8d %8d %5d %6d %6d %7d %6s %5d" t.name t.ops
    t.max_live (cls Mach.Rclass.Int) (cls Mach.Rclass.Float) t.dead t.remat
    t.analysis_edges t.matched diff t.iterations
