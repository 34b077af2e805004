type t = {
  graph : Dep.t Graphlib.Digraph.t;
  ops : (int, Ir.Op.t) Hashtbl.t;
  order : int list;
  latency : Mach.Latency.t;
}

let op t id =
  match Hashtbl.find_opt t.ops id with Some o -> o | None -> raise Not_found

let ops_in_order t = List.map (op t) t.order
let size t = List.length t.order
let graph t = t.graph
let latency_of t o = Ir.Op.latency t.latency o

let preds t id = List.map (fun (e : _ Graphlib.Digraph.edge) -> (e.src, e.label)) (Graphlib.Digraph.preds t.graph id)
let succs t id = List.map (fun (e : _ Graphlib.Digraph.edge) -> (e.dst, e.label)) (Graphlib.Digraph.succs t.graph id)

let add_dep g ~src ~dst dep = Graphlib.Digraph.add_edge g ~src ~dst dep

(* Register dependences between the ops of one body. [carried] selects
   whether cross-iteration (distance 1) edges are generated. *)
let build_register_deps ~latency ~carried g ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  (* [Ir.Op.defs] allocates; the pair loop below reads each op's defs
     O(n) times. *)
  let defs = Array.map Ir.Op.defs arr in
  (* Register -> ascending positions of the ops defining it (an op
     defines at most one register). *)
  let defs_at = Ir.Vreg.Tbl.create 64 in
  let positions_defining r = Option.value ~default:[] (Ir.Vreg.Tbl.find_opt defs_at r) in
  for i = n - 1 downto 0 do
    List.iter
      (fun r -> Ir.Vreg.Tbl.replace defs_at r (i :: positions_defining r))
      defs.(i)
  done;
  (* Same-iteration edges. *)
  for p = 0 to n - 1 do
    let dp = arr.(p) in
    for q = p + 1 to n - 1 do
      let dq = arr.(q) in
      (* flow: p defines r, q uses r, no def of r strictly between *)
      List.iter
        (fun r ->
          if List.exists (Ir.Vreg.equal r) (Ir.Op.uses dq) then begin
            let killed =
              List.exists (fun k -> k > p && k < q) (positions_defining r)
            in
            if not killed then
              add_dep g ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
                (Dep.make ~kind:Dep.Flow ~latency:(Ir.Op.latency latency dp) ~distance:0)
          end)
        defs.(p);
      (* anti: p uses r, q defines r — but only when the use reads a
         same-iteration value. A use with no def before it reads the
         previous iteration's instance, which modulo variable expansion
         renames apart from the def at q, so no ordering is required
         (the induction-variable idiom: users read iv, the bottom update
         writes the next iteration's iv). *)
      List.iter
        (fun r ->
          if
            List.exists (Ir.Vreg.equal r) (Ir.Op.uses dp)
            && (carried = false || List.exists (fun k -> k < p) (positions_defining r))
          then
            add_dep g ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
              (Dep.make ~kind:Dep.Anti ~latency:0 ~distance:0))
        defs.(q);
      (* output: both define r *)
      List.iter
        (fun r ->
          if List.exists (Ir.Vreg.equal r) defs.(p) then
            add_dep g ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
              (Dep.make ~kind:Dep.Output ~latency:1 ~distance:0))
        defs.(q)
    done
  done;
  if carried then
    (* Cross-iteration flow edges at distance 1: a use at position q whose
       register has no def strictly before q reads the previous
       iteration's last def — these close the real recurrences.
       Loop-carried anti and output dependences on registers are omitted
       on purpose: modulo variable expansion renames each iteration's
       instances (see [Sched.Expand]), which is the standard assumption of
       Rau's modulo scheduling and the reason overlapped lifetimes are
       legal. *)
    for q = 0 to n - 1 do
      let uq = arr.(q) in
      List.iter
        (fun r ->
          match positions_defining r with
          | [] -> () (* loop invariant *)
          | defs ->
              let first_def = List.hd defs in
              let last_def = List.nth defs (List.length defs - 1) in
              if first_def >= q then begin
                let dp = arr.(last_def) in
                add_dep g ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id uq)
                  (Dep.make ~kind:Dep.Flow ~latency:(Ir.Op.latency latency dp) ~distance:1)
              end)
        (Ir.Op.uses uq)
    done

let mem_latency latency (kind : Dep.kind_mem) (earlier : Ir.Op.t) =
  match kind with
  | Dep.Mem_flow -> Ir.Op.latency latency earlier
  | Dep.Mem_anti | Dep.Mem_output -> 1

let build_memory_deps ~latency ~carried g ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let is_store o = Mach.Opcode.equal (Ir.Op.opcode o) Mach.Opcode.Store in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if p <> q || carried then begin
        let a = arr.(p) and b = arr.(q) in
        match (Ir.Op.addr a, Ir.Op.addr b) with
        | Some aa, Some ab when is_store a || is_store b ->
            let kind : Dep.kind_mem =
              match (is_store a, is_store b) with
              | true, false -> Dep.Mem_flow
              | false, true -> Dep.Mem_anti
              | true, true -> Dep.Mem_output
              | false, false -> assert false
            in
            let min_dist = if p < q then 0 else 1 in
            let verdict = Memdep.test ~earlier:aa ~later:ab in
            let emit d =
              if d >= min_dist && (carried || d = 0) then
                add_dep g ~src:(Ir.Op.id a) ~dst:(Ir.Op.id b)
                  (Dep.make ~kind:(Dep.Mem kind) ~latency:(mem_latency latency kind a)
                     ~distance:d)
            in
            (match verdict with
            | Memdep.No_dep -> ()
            | Memdep.Dep_at d -> emit d
            | Memdep.Dep_all -> emit min_dist)
        | _ -> ()
      end
    done
  done

let build ~latency ~carried ops =
  let g = Graphlib.Digraph.create () in
  List.iter (fun o -> Graphlib.Digraph.add_node g (Ir.Op.id o)) ops;
  build_register_deps ~latency ~carried g ops;
  build_memory_deps ~latency ~carried g ops;
  let tbl = Hashtbl.create (List.length ops) in
  List.iter (fun o -> Hashtbl.replace tbl (Ir.Op.id o) o) ops;
  { graph = g; ops = tbl; order = List.map Ir.Op.id ops; latency }

let of_loop ?(latency = Mach.Latency.paper) loop =
  build ~latency ~carried:true (Ir.Loop.ops loop)

let of_block ?(latency = Mach.Latency.paper) block =
  build ~latency ~carried:false (Ir.Block.ops block)

let loop_independent t =
  let g = Graphlib.Digraph.create () in
  List.iter (Graphlib.Digraph.add_node g) (Graphlib.Digraph.nodes t.graph);
  Graphlib.Digraph.iter_edges
    (fun e -> if Dep.distance e.label = 0 then Graphlib.Digraph.add_edge g ~src:e.src ~dst:e.dst e.label)
    t.graph;
  g

let critical_path_length t =
  let g = loop_independent t in
  let dist = Graphlib.Topo.longest_paths ~weight:(fun e -> Dep.latency e.label) g in
  Hashtbl.fold (fun id d acc -> max acc (d + latency_of t (op t id))) dist 0

let pp ppf t =
  Format.fprintf ppf "@[<v>ddg (%d ops, %d edges):@," (size t)
    (Graphlib.Digraph.edge_count t.graph);
  List.iter
    (fun id ->
      Format.fprintf ppf "  %a@," Ir.Op.pp (op t id);
      List.iter
        (fun (dst, dep) -> Format.fprintf ppf "    -> op%d %a@," dst Dep.pp dep)
        (succs t id))
    t.order;
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ddg {\n  node [shape=box];\n";
  List.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\"];\n" id
           (String.map (fun c -> if c = '"' then '\'' else c) (Ir.Op.to_string (op t id)))))
    t.order;
  Graphlib.Digraph.iter_edges
    (fun (e : Dep.t Graphlib.Digraph.edge) ->
      let style =
        match Dep.kind e.label with
        | Dep.Flow -> "solid"
        | Dep.Anti -> "dotted"
        | Dep.Output | Dep.Mem _ -> "dashed"
      in
      let label =
        if Dep.distance e.label > 0 then
          Printf.sprintf "%d (d%d)" (Dep.latency e.label) (Dep.distance e.label)
        else string_of_int (Dep.latency e.label)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\", style=%s];\n" e.src e.dst label style))
    t.graph;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
