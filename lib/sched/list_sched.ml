let schedule ?cluster_of ~machine ddg =
  let m : Mach.Machine.t = machine in
  let cluster_of =
    match cluster_of with
    | Some f -> f
    | None ->
        if m.clusters > 1 then
          invalid_arg "List_sched.schedule: multi-cluster machine needs cluster_of";
        fun _ -> 0
  in
  let d : Ddg.Graph.t = ddg in
  let n = Ddg.Graph.size d in
  let sl = Slack.analyze d in
  let tab = Restab.create_flat m in
  (* By node: the earliest cycle its scheduled predecessors allow and
     how many distance-0 predecessors are still unscheduled. Nodes are
     also the reservation table's holders. *)
  let earliest = Array.make n 0 in
  let pending_preds = Array.make n 0 in
  for v = 0 to n - 1 do
    for k = d.pred_off.(v) to d.pred_off.(v + 1) - 1 do
      if d.pred_dist.(k) = 0 then pending_preds.(v) <- pending_preds.(v) + 1
    done
  done;
  let alap = Array.map (Slack.alap sl) d.ids and asap = Array.map (Slack.asap sl) d.ids in
  (* alap, then asap, then id: ascending nodes are ascending ids. *)
  let compare_prio a b =
    let c = Int.compare alap.(a) alap.(b) in
    if c <> 0 then c
    else
      let c = Int.compare asap.(a) asap.(b) in
      if c <> 0 then c else Int.compare a b
  in
  let placements = ref [] in
  let scheduled = ref 0 in
  let cycle = ref 0 in
  let ready = ref [] in
  let waiting = ref (List.filter (fun v -> pending_preds.(v) = 0) (List.init n Fun.id)) in
  (* [waiting] holds dependence-released ops whose earliest cycle may still
     be in the future; [ready] those issuable now. *)
  while !scheduled < n do
    let now, later = List.partition (fun v -> earliest.(v) <= !cycle) !waiting in
    waiting := later;
    ready := List.sort compare_prio (!ready @ now);
    let still_ready = ref [] in
    List.iter
      (fun v ->
        let op = d.ops.(v) and cluster = cluster_of d.ids.(v) in
        let req = Restab.request_for m ~cluster op in
        if not (Restab.satisfiable tab req) then
          invalid_arg "List_sched.schedule: unsatisfiable resource request";
        if Restab.fits tab ~cycle:!cycle req then begin
          Restab.reserve tab ~cycle:!cycle ~op:v req;
          placements := { Schedule.op; cycle = !cycle; cluster } :: !placements;
          incr scheduled;
          for k = d.succ_off.(v) to d.succ_off.(v + 1) - 1 do
            if d.succ_dist.(k) = 0 then begin
              let w = d.succ_node.(k) in
              earliest.(w) <- max earliest.(w) (!cycle + d.succ_lat.(k));
              pending_preds.(w) <- pending_preds.(w) - 1;
              if pending_preds.(w) = 0 then waiting := w :: !waiting
            end
          done
        end
        else still_ready := v :: !still_ready)
      !ready;
    ready := List.rev !still_ready;
    incr cycle
  done;
  Schedule.make !placements d.latency

let ideal ~machine ddg =
  let m =
    Mach.Machine.ideal ~name:(machine.Mach.Machine.name ^ "-ideal")
      ~latency:machine.Mach.Machine.latency ~width:(Mach.Machine.width machine) ()
  in
  schedule ~machine:m ddg
