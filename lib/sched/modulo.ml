type outcome = {
  kernel : Kernel.t;
  ii : int;
  mii : int;
  placements_tried : int;
  evictions : int;
  iis_tried : int;
  budget_exhausted : int;
}

type effort = {
  tried : int ref; (* placement steps, i.e. budget spent *)
  evicted : int ref;
  exhausted : int ref; (* IIs abandoned because the budget ran out *)
}

(* One attempt at the given II over the DDG's rows [v]: nodes, not op
   ids, everywhere, including the MRT's holders (ascending node is
   ascending id, so victim order is unchanged). [request i] is node
   [i]'s resource request. Returns the node->cycle array on success, or
   the cause the II was abandoned — the vocabulary of
   [Obs.Events.Ii_escalate]: "rec_mii" (heights diverge), "self_edge",
   "resource" (a request no cycle of the MRT can hold), "budget". *)
let try_ii ~obs ~request ~budget ~machine ~ii (v : Ddg.Graph.t) effort =
  match Ddg.Graph.heights v ~ii with
  | None -> Error "rec_mii"
  | Some h ->
      if not (Ddg.Graph.self_edges_feasible v ~ii) then Error "self_edge"
      else begin
        let n = Ddg.Graph.size v in
        (* [min_int]: unscheduled (time) / never placed at this II (last_time) *)
        let time = Array.make n min_int in
        let last_time = Array.make n min_int in
        let mrt = Restab.create_modulo machine ~ii in
        (* Nodes ascend and the sort is stable, so ties stay in id order. *)
        let order = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Int.compare h.(b) h.(a)) order;
        let pos = Array.make n 0 in
        Array.iteri (fun i x -> pos.(x) <- i) order;
        (* Every node before [cursor] is scheduled. *)
        let cursor = ref 0 in
        (* Must keep Rau's order, height desc then id asc: it decides every placement. *)
        let pick () =
          while !cursor < n && time.(order.(!cursor)) <> min_int do
            incr cursor
          done;
          if !cursor < n then order.(!cursor) else -1
        in
        let unschedule ~by ~cycle ~reason x =
          incr effort.evicted;
          if obs <> None then
            Obs.Trace.emit obs
              (Obs.Events.Sched_evict { op = v.ids.(x); by = v.ids.(by); cycle; reason });
          Restab.release_op mrt ~op:x;
          time.(x) <- min_int;
          cursor := min !cursor pos.(x)
        in
        let budget = ref budget in
        let failure = ref None in
        let running = ref true in
        while !running do
          let x = pick () in
          if x < 0 then running := false
          else if !budget <= 0 then begin
            incr effort.exhausted;
            failure := Some "budget";
            running := false
          end
          else begin
            decr budget;
            incr effort.tried;
            Obs.Trace.incr obs Obs.Counter.Sched_placements 1;
            let estart = ref 0 in
            for k = v.pred_off.(x) to v.pred_off.(x + 1) - 1 do
              let tp = time.(v.pred_node.(k)) in
              if tp <> min_int then
                estart := max !estart (tp + v.pred_lat.(k) - (ii * v.pred_dist.(k)))
            done;
            let start =
              if last_time.(x) = min_int then !estart else max !estart (last_time.(x) + 1)
            in
            let req = request x in
            if not (Restab.satisfiable mrt req) then begin
              failure := Some "resource";
              running := false
            end
            else begin
              let rec first_fit k =
                if k >= ii then start
                else if Restab.fits mrt ~cycle:(start + k) req then start + k
                else first_fit (k + 1)
              in
              let t = first_fit 0 in
              if not (Restab.fits mrt ~cycle:t req) then
                List.iter
                  (unschedule ~by:x ~cycle:t ~reason:"conflict")
                  (Restab.conflicting_ops mrt ~cycle:t req);
              Restab.reserve mrt ~cycle:t ~op:x req;
              time.(x) <- t;
              last_time.(x) <- t;
              (* Evict scheduled successors whose dependence from us is
                 now violated (predecessor constraints hold because
                 t >= estart). *)
              for k = v.succ_off.(x) to v.succ_off.(x + 1) - 1 do
                let s = v.succ_node.(k) in
                if s <> x && time.(s) <> min_int then begin
                  let need = t + v.succ_lat.(k) - (ii * v.succ_dist.(k)) in
                  if time.(s) < need then
                    unschedule ~by:x ~cycle:time.(s) ~reason:"dependence" s
                end
              done
            end
          end
        done;
        match !failure with Some cause -> Error cause | None -> Ok time
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
  let v : Ddg.Graph.t = ddg in
  let n = Ddg.Graph.size v in
  (* [cluster_of] is fixed for the call, so each node's request is too;
     computed at the node's first placement. *)
  let requests = Array.make n None in
  let request x =
    match requests.(x) with
    | Some r -> r
    | None ->
        let id = v.ids.(x) in
        let r = Restab.request_for m ~cluster:(cluster_of id) v.ops.(x) in
        requests.(x) <- Some r;
        r
  in
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
            try_ii ~obs ~request ~budget:(budget_ratio * n) ~machine:m ~ii v effort)
      in
      match result with
      | Ok time ->
          Obs.Trace.add_attr obs "ii" (string_of_int ii);
          let placements =
            List.init n (fun x ->
                { Schedule.op = v.ops.(x); cycle = time.(x); cluster = cluster_of v.ids.(x) })
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
