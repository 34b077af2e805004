type source = {
  instructions : Ir.Op.t list list;
  flexibility : int -> int;
  depth : int -> int;
  density : int -> float;
}

let op_factor w src (op : Ir.Op.t) =
  let id = Ir.Op.id op in
  Weights.contribution w ~flexibility:(src.flexibility id) ~depth:(src.depth id)
    ~density:(src.density id)

let build ?obs ?(weights = Weights.default) src =
  let g = Graph.create () in
  let w = weights in
  let traced = obs <> None in
  let emit_edge a b term wgt =
    if traced then
      Obs.Trace.emit obs
        (Obs.Events.Rcg_edge
           { a = Ir.Vreg.to_string a; b = Ir.Vreg.to_string b; term; w = wgt })
  in
  List.iter
    (fun row ->
      let row = Array.of_list row in
      (* Each operation's factor, computed once for its attraction edges
         and every repulsion pair it is in. *)
      let factor = Array.map (op_factor w src) row in
      (* Each register with its node, resolved once per operation. *)
      let resolve = List.map (fun r -> (r, Graph.node g r)) in
      let defs = Array.make (Array.length row) [] in
      (* Attraction: defs and uses of one operation. *)
      Array.iteri
        (fun k op ->
          defs.(k) <- resolve (Ir.Op.defs op);
          let uses = resolve (Ir.Op.uses op) in
          let factor = factor.(k) in
          if traced then begin
            let id = Ir.Op.id op in
            Obs.Trace.emit obs
              (Obs.Events.Rcg_factor
                 {
                   op = id;
                   flexibility = src.flexibility id;
                   depth = src.depth id;
                   density = src.density id;
                   factor;
                 })
          end;
          let f = w.Weights.attract_scale *. factor in
          if f <> 0.0 then
            List.iter
              (fun (d, dn) ->
                List.iter
                  (fun (u, un) ->
                    if not (Ir.Vreg.equal d u) then begin
                      Graph.add_edge_weight_at g dn un f;
                      Graph.add_node_weight_at g dn f;
                      Graph.add_node_weight_at g un f;
                      emit_edge d u Obs.Events.Attract f
                    end)
                  uses)
              defs.(k))
        row;
      (* Repulsion: defs of distinct operations sharing the instruction. *)
      if w.Weights.repel_scale <> 0.0 then
        for k1 = 0 to Array.length row - 1 do
          for k2 = k1 + 1 to Array.length row - 1 do
            let f = w.Weights.repel_scale *. (factor.(k1) +. factor.(k2)) /. 2.0 in
            List.iter
              (fun (d1, n1) ->
                List.iter
                  (fun (d2, n2) ->
                    if not (Ir.Vreg.equal d1 d2) then begin
                      Graph.add_edge_weight_at g n1 n2 (-.f);
                      Graph.add_node_weight_at g n1 f;
                      Graph.add_node_weight_at g n2 f;
                      emit_edge d1 d2 Obs.Events.Repel (-.f)
                    end)
                  defs.(k2))
              defs.(k1)
          done
        done)
    src.instructions;
  g

let source_of_kernel ~ddg ~depth (kernel : Sched.Kernel.t) =
  let slack = Sched.Slack.analyze ddg in
  let dens =
    float_of_int (Sched.Kernel.op_count kernel) /. float_of_int (Sched.Kernel.ii kernel)
  in
  {
    instructions = List.map snd (Sched.Kernel.kernel_rows kernel);
    flexibility = (fun id -> Sched.Slack.flexibility slack id);
    depth = (fun _ -> depth);
    density = (fun _ -> dens);
  }

let source_of_schedule ~ddg ~depth (sched : Sched.Schedule.t) =
  let slack = Sched.Slack.analyze ddg in
  let il = max 1 (Sched.Schedule.issue_length sched) in
  let dens = float_of_int (Sched.Schedule.op_count sched) /. float_of_int il in
  {
    instructions = List.map snd (Sched.Schedule.instructions sched);
    flexibility = (fun id -> Sched.Slack.flexibility slack id);
    depth = (fun _ -> depth);
    density = (fun _ -> dens);
  }

let of_loop_res ?obs ?weights ~machine loop =
  let ddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop in
  match Sched.Modulo.ideal ~machine ddg with
  | None ->
      Error
        (Printf.sprintf "loop %s: no feasible II for the ideal pipeline, cannot build RCG"
           (Ir.Loop.name loop))
  | Some outcome ->
      Ok
        (build ?obs ?weights
           (source_of_kernel ~ddg ~depth:(Ir.Loop.depth loop) outcome.Sched.Modulo.kernel))

let of_loop ?obs ?weights ~machine loop =
  (* Raising wrapper for contexts that already proved the loop pipelines
     (tests, demos); anything driven by user input goes through
     [of_loop_res] — an unschedulable loop is data, not a bug. *)
  match of_loop_res ?obs ?weights ~machine loop with
  | Ok g -> g
  | Error msg -> invalid_arg ("Rcg.Build.of_loop: " ^ msg)

let of_func ?weights ~machine func =
  (* One source per block; merge by building into a fresh graph from the
     concatenation — flexibility and density are per-block. *)
  let g = Graph.create () in
  let weights = Option.value ~default:Weights.default weights in
  List.iter
    (fun block ->
      if Ir.Block.ops block <> [] then begin
        let ddg = Ddg.Graph.of_block ~latency:machine.Mach.Machine.latency block in
        let sched = Sched.List_sched.ideal ~machine ddg in
        let src = source_of_schedule ~ddg ~depth:(Ir.Block.depth block) sched in
        let sub = build ~weights src in
        List.iter
          (fun r ->
            Graph.add_register g r;
            Graph.add_node_weight g r (Graph.node_weight sub r))
          (Graph.registers sub);
        List.iter
          (fun r ->
            List.iter
              (fun (m, wgt) ->
                if Ir.Vreg.compare r m < 0 then Graph.add_edge_weight g r m wgt)
              (Graph.neighbors sub r))
          (Graph.registers sub)
      end)
    (Ir.Func.blocks func);
  g
