type outcome = {
  kernel : Kernel.t;
  ii : int;
  mii : int;
  placements_tried : int;
  evictions : int;
  iis_tried : int;
  budget_exhausted : int;
}

(* Height-based priority for a given II: H(v) = max over out-edges of
   H(dst) + latency - II*distance (at least 0). Converges iff the
   II-adjusted graph has no positive cycle, i.e. II >= RecMII. *)
let heights ddg ~ii =
  let g = Ddg.Graph.graph ddg in
  let n = Graphlib.Digraph.node_count g in
  let h = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace h id 0) (Graphlib.Digraph.nodes g);
  let relax () =
    let changed = ref false in
    Graphlib.Digraph.iter_edges
      (fun e ->
        let w = Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label) in
        let cand = Hashtbl.find h e.dst + w in
        if cand > Hashtbl.find h e.src then begin
          Hashtbl.replace h e.src cand;
          changed := true
        end)
      g;
    !changed
  in
  let rec run i = if i > n + 1 then None else if relax () then run (i + 1) else Some h in
  run 0

let self_edges_feasible ddg ~ii =
  List.for_all
    (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
      e.src <> e.dst || Ddg.Dep.latency e.label <= ii * Ddg.Dep.distance e.label)
    (Graphlib.Digraph.edges (Ddg.Graph.graph ddg))

type effort = {
  tried : int ref; (* placement steps, i.e. budget spent *)
  evicted : int ref;
  exhausted : int ref; (* IIs abandoned because the budget ran out *)
}

(* One attempt at the given II. Returns the op->cycle map on success,
   or the cause the II was abandoned — the vocabulary of
   [Obs.Events.Ii_escalate]: "rec_mii" (heights diverge), "self_edge",
   "resource" (a request no cycle of the MRT can hold), "budget". *)
let try_ii ~obs ~cluster_of ~budget ~machine ~ii ddg effort =
  match heights ddg ~ii with
  | None -> Error "rec_mii"
  | Some h ->
      if not (self_edges_feasible ddg ~ii) then Error "self_edge"
      else begin
        let g = Ddg.Graph.graph ddg in
        let ids = Graphlib.Digraph.nodes g in
        let time : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let last_time = Hashtbl.create 64 in
        let mrt = Restab.create_modulo machine ~ii in
        let request id =
          Restab.request_for machine ~cluster:(cluster_of id) (Ddg.Graph.op ddg id)
        in
        let unscheduled = Hashtbl.create 64 in
        List.iter (fun id -> Hashtbl.replace unscheduled id ()) ids;
        (* [ids] ascend and the sort is stable, so ties stay in id order. *)
        let order = Array.of_list ids in
        Array.stable_sort
          (fun a b -> Int.compare (Hashtbl.find h b) (Hashtbl.find h a))
          order;
        let pos = Hashtbl.create 64 in
        Array.iteri (fun i id -> Hashtbl.replace pos id i) order;
        (* Every id before [cursor] is scheduled. *)
        let cursor = ref 0 in
        (* Must keep Rau's order, height desc then id asc: it decides every placement. *)
        let pick () =
          while !cursor < Array.length order && not (Hashtbl.mem unscheduled order.(!cursor)) do
            incr cursor
          done;
          if !cursor < Array.length order then Some order.(!cursor) else None
        in
        let unschedule ~by ~cycle ~reason id =
          incr effort.evicted;
          if obs <> None then
            Obs.Trace.emit obs (Obs.Events.Sched_evict { op = id; by; cycle; reason });
          Restab.release_op mrt ~op:id;
          Hashtbl.remove time id;
          Hashtbl.replace unscheduled id ();
          cursor := min !cursor (Hashtbl.find pos id)
        in
        let budget = ref budget in
        let failure = ref None in
        let running = ref true in
        while !running do
          match pick () with
          | None -> running := false
          | Some id ->
              if !budget <= 0 then begin
                incr effort.exhausted;
                failure := Some "budget";
                running := false
              end
              else begin
                decr budget;
                incr effort.tried;
                Obs.Trace.incr obs Obs.Counter.Sched_placements 1;
                let estart =
                  List.fold_left
                    (fun acc (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
                      match Hashtbl.find_opt time e.src with
                      | None -> acc
                      | Some tp ->
                          max acc
                            (tp + Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label)))
                    0
                    (Graphlib.Digraph.preds g id)
                in
                let start =
                  match Hashtbl.find_opt last_time id with
                  | None -> estart
                  | Some prev -> max estart (prev + 1)
                in
                let req = request id in
                if not (Restab.satisfiable mrt req) then begin
                  failure := Some "resource";
                  running := false
                end
                else begin
                  let rec first_fit k =
                    if k >= ii then None
                    else if Restab.fits mrt ~cycle:(start + k) req then Some (start + k)
                    else first_fit (k + 1)
                  in
                  let t = match first_fit 0 with Some t -> t | None -> start in
                  if not (Restab.fits mrt ~cycle:t req) then
                    List.iter
                      (unschedule ~by:id ~cycle:t ~reason:"conflict")
                      (Restab.conflicting_ops mrt ~cycle:t req);
                  Restab.reserve mrt ~cycle:t ~op:id req;
                  Hashtbl.replace time id t;
                  Hashtbl.replace last_time id t;
                  Hashtbl.remove unscheduled id;
                  (* Evict scheduled successors whose dependence from us is
                     now violated (predecessor constraints hold because
                     t >= estart). *)
                  List.iter
                    (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
                      if e.dst <> id then
                        match Hashtbl.find_opt time e.dst with
                        | None -> ()
                        | Some ts ->
                            let need =
                              t + Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label)
                            in
                            if ts < need then
                              unschedule ~by:id ~cycle:ts ~reason:"dependence" e.dst)
                    (Graphlib.Digraph.succs g id)
                end
              end
        done;
        match !failure with
        | Some cause -> Error cause
        | None ->
            if Hashtbl.length unscheduled = 0 then Ok time
            else Error "budget" (* unreachable: pick () returned None *)
      end

let schedule ?obs ?cluster_of ?(budget_ratio = 10) ?max_ii ~machine ~mii ddg =
  let m : Mach.Machine.t = machine in
  let cluster_of =
    match cluster_of with
    | Some f -> f
    | None ->
        if m.clusters > 1 then
          (* True internal invariant, kept as an exception: which machine a
             caller schedules on is decided in code, not by input data —
             Partition.Driver always supplies [cluster_of] on clustered
             machines (after validating the assignment it derives it from). *)
          invalid_arg "Modulo.schedule: multi-cluster machine needs cluster_of";
        fun _ -> 0
  in
  (* True internal invariant: MII comes from Ddg.Minii, whose bounds are
     >= 1 by construction; a smaller value can only be a caller bug. *)
  if mii < 1 then invalid_arg "Modulo.schedule: mii must be >= 1";
  let max_ii = match max_ii with Some x -> x | None -> max mii (Ddg.Minii.upper_bound ddg) in
  let n = Ddg.Graph.size ddg in
  let effort = { tried = ref 0; evicted = ref 0; exhausted = ref 0 } in
  Obs.Trace.span obs "modulo.schedule"
    ~attrs:[ ("mii", string_of_int mii); ("ops", string_of_int n) ]
  @@ fun () ->
  let iis_tried = ref 0 in
  let rec attempt ii =
    if ii > max_ii then None
    else begin
      incr iis_tried;
      let result =
        Obs.Trace.span obs "modulo.try_ii" ~attrs:[ ("ii", string_of_int ii) ] (fun () ->
            try_ii ~obs ~cluster_of ~budget:(budget_ratio * n) ~machine:m ~ii ddg effort)
      in
      match result with
      | Ok time ->
          Obs.Trace.add_attr obs "ii" (string_of_int ii);
          let placements =
            Hashtbl.fold
              (fun id t acc ->
                { Schedule.op = Ddg.Graph.op ddg id; cycle = t; cluster = cluster_of id }
                :: acc)
              time []
          in
          Some
            {
              kernel = Kernel.make ~ii placements;
              ii;
              mii;
              placements_tried = !(effort.tried);
              evictions = !(effort.evicted);
              iis_tried = !iis_tried;
              budget_exhausted = !(effort.exhausted);
            }
      | Error cause ->
          if obs <> None then
            Obs.Trace.emit obs (Obs.Events.Ii_escalate { ii; cause });
          attempt (ii + 1)
    end
  in
  attempt mii

let schedule_at ?obs ?cluster_of ?budget_ratio ~machine ~ii ddg =
  schedule ?obs ?cluster_of ?budget_ratio ~machine ~mii:ii ~max_ii:ii ddg

let clustered_mii ~machine ~ops_per_cluster ~copies_per_cluster ddg =
  max
    (Ddg.Minii.res_mii_clustered ~machine ~ops_per_cluster ~copies_per_cluster)
    (Ddg.Minii.rec_mii ddg)

let ideal ?obs ?budget_ratio ~machine ddg =
  let m : Mach.Machine.t = machine in
  let mono = Mach.Machine.monolithic_of m in
  let mii = Ddg.Minii.min_ii ~width:(Mach.Machine.width m) ddg in
  schedule ?obs ?budget_ratio ~machine:mono ~mii ddg
