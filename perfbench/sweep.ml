(* sweep: the paper's Tables 1-2 experiment. The 211-loop suite times
   the six paper configurations in a seeded order; one op is one
   Partition.Driver.pipeline call, with no result cache. *)

open Common

type op = { loop : Ir.Loop.t; machine : Mach.Machine.t }

let setup ~seed =
  let loops = suite () in
  shuffle ~seed
    (List.concat_map
       (fun (c : Core.Experiment.config) ->
         List.map (fun loop -> { loop; machine = c.Core.Experiment.machine }) loops)
       Core.Experiment.paper_configs)

(* What a traced composition must reproduce: ideal II, clustered II,
   copies. *)
let summary (m : Core.Metrics.loop_metrics) = (m.ideal_ii, m.clustered_ii, m.n_copies)

let describe op = Ir.Loop.name op.loop ^ " on " ^ op.machine.Mach.Machine.name

let run_op _ op =
  match Partition.Driver.pipeline ~machine:op.machine op.loop with
  | Ok r -> Ok r
  | Error e -> Error (describe op ^ ": " ^ Verify.Stage_error.to_string e)

(* The output check, run on each first-pass result outside its timed
   interval: every stage artifact through the independent Verify
   analyzers. Only the paper metrics are kept, so the run's memory stays
   the pipeline's own. *)
let keep ops i (r : Partition.Driver.result) =
  let op = ops.(i) in
  let latency = op.machine.Mach.Machine.latency in
  let stages =
    {
      (Verify.Pipeline.stages ~machine:op.machine op.loop) with
      Verify.Pipeline.ideal =
        Some (Ddg.Graph.of_loop ~latency op.loop, r.ideal.Sched.Modulo.kernel);
      partition = Some (r.assignment, r.rewritten);
      clustered =
        Some (Ddg.Graph.of_loop ~latency r.rewritten, r.clustered.Sched.Modulo.kernel);
    }
  in
  match Verify.Pipeline.verdict (Verify.Pipeline.run stages) with
  | Error msg -> Error (describe op ^ " fails verification: " ^ msg)
  | Ok () -> Ok (Core.Metrics.of_result r)

let same kept r = kept = Core.Metrics.of_result r

(* The traced composition: Partition.Driver.pipeline's stages for the
   default greedy partitioner and Rau scheduler, in its order, each
   wrapped in a span around the public call that implements it. *)
let traced_op ~expected i op =
  let m = op.machine and loop = op.loop in
  let t0 = now () in
  let spans0 = Layers.spans_ms () in
  let ddg = Layers.span "ddg.build" (fun () -> Ddg.Graph.of_loop ~latency:m.latency loop) in
  let ideal =
    match Layers.span "sched.ideal" (fun () -> Sched.Modulo.ideal ~machine:m ddg) with
    | Some o -> o
    | None -> failwith "no ideal schedule"
  in
  let weights = Rcg.Weights.default in
  let rcg =
    Layers.span "rcg.build" (fun () ->
        let src =
          Rcg.Build.source_of_kernel ~ddg ~depth:(Ir.Loop.depth loop) ideal.Sched.Modulo.kernel
        in
        Rcg.Build.build ~weights src)
  in
  let assignment =
    Layers.span "partition.greedy" (fun () ->
        Partition.Greedy.partition ~weights ~banks:m.clusters rcg)
  in
  let assignment =
    Ir.Vreg.Set.fold
      (fun r acc -> if Ir.Vreg.Map.mem r acc then acc else Ir.Vreg.Map.add r 0 acc)
      (Ir.Loop.vregs loop) assignment
  in
  let ins =
    Layers.span "partition.copies" (fun () ->
        Partition.Copies.insert_loop ~machine:m ~assignment loop)
  in
  let ddg' =
    Layers.span "ddg.rebuild" (fun () -> Ddg.Graph.of_loop ~latency:m.latency ins.loop)
  in
  let cluster_of, mii =
    Layers.span "sched.minii" (fun () ->
        match Partition.Driver.cluster_map ins.assignment ins.loop with
        | Error msg -> failwith msg
        | Ok cluster_of ->
            ( cluster_of,
              Sched.Modulo.clustered_mii ~machine:m ~ops_per_cluster:ins.ops_per_cluster
                ~copies_per_cluster:ins.copies_per_cluster ddg' ))
  in
  let clustered =
    match
      Layers.span "sched.clustered" (fun () ->
          Sched.Modulo.schedule ~cluster_of ~machine:m ~mii ddg')
    with
    | Some o -> o
    | None -> failwith "no clustered schedule"
  in
  let op_ms = 1000.0 *. (now () -. t0) in
  Layers.add_ms "sweep.unattributed" (op_ms -. (Layers.spans_ms () -. spans0));
  let both f = float_of_int (f ideal + f clustered) in
  Layers.count "sched.placements" (both (fun o -> o.Sched.Modulo.placements_tried));
  Layers.count "sched.evictions" (both (fun o -> o.Sched.Modulo.evictions));
  Layers.count "sched.iis_tried" (both (fun o -> o.Sched.Modulo.iis_tried));
  Layers.count "sched.budget_exhausted" (both (fun o -> o.Sched.Modulo.budget_exhausted));
  Layers.count "ddg.edges" (float_of_int (Graphlib.Digraph.edge_count ddg.Ddg.Graph.graph));
  Layers.count "rcg.nodes" (float_of_int (Rcg.Graph.node_count rcg));
  Layers.count "rcg.edges" (float_of_int (Rcg.Graph.edge_count rcg));
  Layers.count "partition.copies" (float_of_int ins.n_copies);
  let got = (ideal.Sched.Modulo.ii, clustered.Sched.Modulo.ii, ins.n_copies) in
  match expected.(i) with
  | Ok k when summary k = got -> Ok got
  | Ok k ->
      let a, b, c = summary k and x, y, z = got in
      Error
        (Printf.sprintf "traced composition gives II %d/%d, %d copies; pipeline gives %d/%d, %d"
           x y z a b c)
  | Error _ -> Error "pipeline failed on this op"

let layer_names =
  [ "ddg.build"; "sched.ideal"; "rcg.build"; "partition.greedy"; "partition.copies";
    "ddg.rebuild"; "sched.minii"; "sched.clustered" ]

let count_names =
  [ "sched.placements"; "sched.evictions"; "sched.iis_tried"; "sched.budget_exhausted";
    "ddg.edges"; "rcg.nodes"; "rcg.edges"; "partition.copies" ]

let layer_metrics ~traced_ops ~distinct =
  let per_op x = x /. float_of_int traced_ops and per_distinct x = x /. float_of_int distinct in
  List.concat_map
    (fun l -> [ (l ^ "_ms", per_op (Layers.ms l)); (l ^ "_kw", per_distinct (Layers.kw l)) ])
    layer_names
  @ List.map (fun c -> (c, per_distinct (Layers.total c))) count_names
  @ [ ("sweep.unattributed_ms", per_op (Layers.ms "sweep.unattributed")) ]
