(* Connectivity-preserving ordering: seed with the highest node of the
   most critical recurrence, then repeatedly append the unordered
   neighbour (either direction) of the ordered set with the greatest
   height. Nodes on recurrences outrank straight-line nodes as seeds. *)
let ordering ddg h =
  let g = Ddg.Graph.graph ddg in
  let cyclic = Hashtbl.create 16 in
  List.iter
    (fun comp -> List.iter (fun v -> Hashtbl.replace cyclic v ()) comp)
    (Graphlib.Scc.nontrivial g);
  let nodes = Graphlib.Digraph.nodes g in
  let unordered = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace unordered v ()) nodes;
  let priority v =
    ((if Hashtbl.mem cyclic v then 1 else 0), h.(Ddg.Graph.index ddg v), -v)
  in
  let best l = List.fold_left
      (fun acc v -> match acc with
        | None -> Some v
        | Some b -> if priority v > priority b then Some v else acc)
      None l
  in
  let order = ref [] in
  let frontier = Hashtbl.create 64 in
  let add v =
    Hashtbl.remove unordered v;
    Hashtbl.remove frontier v;
    order := v :: !order;
    let note (e : Ddg.Dep.t Graphlib.Digraph.edge) other =
      if Hashtbl.mem unordered other then Hashtbl.replace frontier other ();
      ignore e
    in
    List.iter (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) -> note e e.dst) (Graphlib.Digraph.succs g v);
    List.iter (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) -> note e e.src) (Graphlib.Digraph.preds g v)
  in
  while Hashtbl.length unordered > 0 do
    let frontier_nodes = Hashtbl.fold (fun v () acc -> v :: acc) frontier [] in
    match best frontier_nodes with
    | Some v -> add v
    | None ->
        (* new connected component: reseed *)
        let all = Hashtbl.fold (fun v () acc -> v :: acc) unordered [] in
        (match best all with Some v -> add v | None -> ())
  done;
  List.rev !order

(* One attempt at the given II: the op->cycle map, or the cause the II
   was abandoned in Modulo's vocabulary — "rec_mii" (heights diverge),
   "self_edge", or "resource" (a request no MRT row holds, or no free
   slot in a node's window; Swing never evicts). *)
let try_ii ~cluster_of ~machine ~ii ddg tried =
  match Ddg.Graph.heights ddg ~ii with
  | None -> Error "rec_mii"
  | Some h ->
      if not (Ddg.Graph.self_edges_feasible ddg ~ii) then Error "self_edge"
      else begin
        let g = Ddg.Graph.graph ddg in
        let order = ordering ddg h in
        (* Seeds are placed high enough that backward placement of their
           predecessors never needs a negative cycle: any latency chain is
           shorter than the sum of all latencies. *)
        let base = Ddg.Minii.upper_bound ddg in
        let mrt = Restab.create_modulo machine ~ii in
        let time = Hashtbl.create 64 in
        let ok = ref true in
        List.iter
          (fun v ->
            if !ok then begin
              incr tried;
              let op = Ddg.Graph.op ddg v in
              let req = Restab.request_for machine ~cluster:(cluster_of v) op in
              if not (Restab.satisfiable mrt req) then ok := false
              else begin
                let sched_preds =
                  List.filter_map
                    (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
                      if e.src = v then None
                      else
                        Option.map
                          (fun t -> t + Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label))
                          (Hashtbl.find_opt time e.src))
                    (Graphlib.Digraph.preds g v)
                and sched_succs =
                  List.filter_map
                    (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
                      if e.dst = v then None
                      else
                        Option.map
                          (fun t -> t - Ddg.Dep.latency e.label + (ii * Ddg.Dep.distance e.label))
                          (Hashtbl.find_opt time e.dst))
                    (Graphlib.Digraph.succs g v)
                in
                let estart = List.fold_left max 0 sched_preds in
                let lstart = List.fold_left min max_int sched_succs in
                let candidates =
                  match (sched_preds, sched_succs) with
                  | _ :: _, _ :: _ ->
                      if lstart < estart then []
                      else List.init (min (lstart - estart + 1) ii) (fun k -> estart + k)
                  | _ :: _, [] -> List.init ii (fun k -> estart + k)
                  | [], _ :: _ ->
                      (* backward scan, pulling the def toward its uses *)
                      List.filter (fun t -> t >= 0) (List.init ii (fun k -> lstart - k))
                  | [], [] -> List.init ii (fun k -> base + k)
                in
                match List.find_opt (fun t -> Restab.fits mrt ~cycle:t req) candidates with
                | Some t ->
                    Restab.reserve mrt ~cycle:t ~op:(Ddg.Graph.index ddg v) req;
                    Hashtbl.replace time v t
                | None -> ok := false
              end
            end)
          order;
        if !ok then Ok time else Error "resource"
      end

let schedule ?obs ?cluster_of ?max_ii ~machine ~mii ddg =
  let m : Mach.Machine.t = machine in
  let cluster_of =
    match cluster_of with
    | Some f -> f
    | None ->
        if m.clusters > 1 then invalid_arg "Swing.schedule: multi-cluster machine needs cluster_of";
        fun _ -> 0
  in
  if mii < 1 then invalid_arg "Swing.schedule: mii must be >= 1";
  let max_ii = match max_ii with Some x -> x | None -> max mii (Ddg.Minii.upper_bound ddg) in
  let tried = ref 0 in
  Obs.Trace.span obs "swing.schedule" ~attrs:[ ("mii", string_of_int mii) ] @@ fun () ->
  let iis_tried = ref 0 in
  let rec attempt ii =
    if ii > max_ii then None
    else begin
      incr iis_tried;
      let before = !tried in
      let result =
        Obs.Trace.span obs "swing.try_ii" ~attrs:[ ("ii", string_of_int ii) ] (fun () ->
            try_ii ~cluster_of ~machine:m ~ii ddg tried)
      in
      Obs.Trace.incr obs Obs.Counter.Sched_placements (!tried - before);
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
            { Modulo.kernel = Kernel.make ~ii placements; ii; mii;
              placements_tried = !tried; evictions = 0; iis_tried = !iis_tried;
              budget_exhausted = 0 }
      | Error cause ->
          if obs <> None then
            Obs.Trace.emit obs (Obs.Events.Ii_escalate { ii; cause });
          attempt (ii + 1)
    end
  in
  attempt mii

let ideal ?obs ~machine ddg =
  let m : Mach.Machine.t = machine in
  let mono = Mach.Machine.monolithic_of m in
  let mii = Ddg.Minii.min_ii ~width:(Mach.Machine.width m) ddg in
  schedule ?obs ~machine:mono ~mii ddg
