type config = {
  label : string;
  clusters : int;
  copy_model : Mach.Machine.copy_model;
  machine : Mach.Machine.t;
}

let config_for ~clusters ~copy_model =
  {
    label =
      Printf.sprintf "%dx%d %s" clusters (16 / clusters)
        (Mach.Machine.copy_model_name copy_model);
    clusters;
    copy_model;
    machine = Mach.Machine.paper_clustered ~clusters ~copy_model;
  }

let paper_configs =
  List.concat_map
    (fun clusters ->
      [
        config_for ~clusters ~copy_model:Mach.Machine.Embedded;
        config_for ~clusters ~copy_model:Mach.Machine.Copy_unit;
      ])
    [ 2; 4; 8 ]

let default_loops = lazy (Workload.Suite.loops ())

type run = {
  config : config;
  metrics : Metrics.loop_metrics list;
  failures : (string * Verify.Stage_error.t) list;
  cache_hits : int;
}

let run_config ?(jobs = 1) ?cache ?partitioner ?loops config =
  let loops = match loops with Some l -> l | None -> Lazy.force default_loops in
  let batch = Batch.run ~jobs ?cache ?partitioner ~machine:config.machine loops in
  let metrics = ref [] in
  let failures = ref [] in
  Array.iter
    (fun (name, outcome) ->
      match outcome with
      | Ok m -> metrics := m :: !metrics
      | Error e -> failures := (name, e) :: !failures)
    batch.Batch.outcomes;
  {
    config;
    metrics = List.rev !metrics;
    failures = List.rev !failures;
    cache_hits = batch.Batch.hits;
  }

let run_all ?jobs ?cache ?partitioner ?loops ?(configs = paper_configs) () =
  List.map (run_config ?jobs ?cache ?partitioner ?loops) configs

let ideal_ipc ?loops () =
  let loops = match loops with Some l -> l | None -> Lazy.force default_loops in
  let machine = Mach.Machine.paper_ideal in
  let ipcs =
    List.filter_map
      (fun loop ->
        let ddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop in
        match Sched.Modulo.ideal ~machine ddg with
        | Some o ->
            Some (float_of_int (Ir.Loop.size loop) /. float_of_int o.Sched.Modulo.ii)
        | None -> None)
      loops
  in
  Util.Stats.mean ipcs
