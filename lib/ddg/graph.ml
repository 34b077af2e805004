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

let rec mem_int x = function [] -> false | y :: rest -> x = y || mem_int x rest

(* Register dependences between the ops of one body. [carried] selects
   whether cross-iteration (distance 1) edges are generated.

   Registers are numbered densely as they first appear, and each gets
   ascending position tables of the ops defining and using it. A pair
   (p, q), p < q, can only carry a register edge when q uses or defines
   the register p defines, or defines one p uses; so each p visits just
   those q, in ascending order, and runs the flow / anti / output checks
   on them. The edges come out in the (p, q, kind) order of a scan over
   every pair, which is the order of each node's [succs] and [preds]. *)
let build_register_deps ~latency ~carried g (arr : Ir.Op.t array) =
  let n = Array.length arr in
  let number = Ir.Vreg.Tbl.create 64 in
  let reg r =
    match Ir.Vreg.Tbl.find number r with
    | k -> k
    | exception Not_found ->
        let k = Ir.Vreg.Tbl.length number in
        Ir.Vreg.Tbl.add number r k;
        k
  in
  (* An op defines at most one register: [def.(p)] is it, or -1. *)
  let def = Array.map (fun o -> match Ir.Op.dst o with Some r -> reg r | None -> -1) arr in
  let uses = Array.map (fun o -> List.map reg (Ir.Op.uses o)) arr in
  let regs = Ir.Vreg.Tbl.length number in
  let defs_at = Array.make regs [] and uses_at = Array.make regs [] in
  for p = n - 1 downto 0 do
    if def.(p) >= 0 then defs_at.(def.(p)) <- p :: defs_at.(def.(p));
    List.iter
      (fun r -> match uses_at.(r) with p' :: _ when p' = p -> () | l -> uses_at.(r) <- p :: l)
      uses.(p)
  done;
  let lat = Array.map (Ir.Op.latency latency) arr in
  let id p = Ir.Op.id arr.(p) in
  (* The q > p sharing a register with p are gathered into [cand];
     [seen] drops repeats. *)
  let cand = Array.make n 0 and seen = Array.make n (-1) in
  let count = ref 0 in
  let rec gather p = function
    | [] -> ()
    | q :: rest ->
        if q > p && seen.(q) <> p then begin
          seen.(q) <- p;
          cand.(!count) <- q;
          incr count
        end;
        gather p rest
  in
  let rec first_after p = function
    | [] -> max_int
    | k :: rest -> if k > p then k else first_after p rest
  in
  for p = 0 to n - 1 do
    count := 0;
    let d = def.(p) in
    if d >= 0 then begin
      gather p uses_at.(d);
      gather p defs_at.(d)
    end;
    List.iter (fun r -> gather p defs_at.(r)) uses.(p);
    let qs = Array.sub cand 0 !count in
    Array.sort Int.compare qs;
    (* p's flow edges stop at the next def of its register. *)
    let next_def = if d >= 0 then first_after p defs_at.(d) else max_int in
    Array.iter
      (fun q ->
        (* flow: p defines r, q uses r, no def of r strictly between *)
        if d >= 0 && mem_int d uses.(q) && not (next_def < q) then
          add_dep g ~src:(id p) ~dst:(id q) (Dep.make ~kind:Dep.Flow ~latency:lat.(p) ~distance:0);
        let dq = def.(q) in
        if dq >= 0 then begin
          (* anti: p uses r, q defines r — but only when the use reads a
             same-iteration value. A use with no def before it reads the
             previous iteration's instance, which modulo variable expansion
             renames apart from the def at q, so no ordering is required
             (the induction-variable idiom: users read iv, the bottom update
             writes the next iteration's iv). *)
          if mem_int dq uses.(p) && ((not carried) || List.hd defs_at.(dq) < p) then
            add_dep g ~src:(id p) ~dst:(id q) (Dep.make ~kind:Dep.Anti ~latency:0 ~distance:0);
          (* output: both define r *)
          if dq = d then
            add_dep g ~src:(id p) ~dst:(id q) (Dep.make ~kind:Dep.Output ~latency:1 ~distance:0)
        end)
      qs
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
      List.iter
        (fun r ->
          match defs_at.(r) with
          | [] -> () (* loop invariant *)
          | first_def :: _ as defs ->
              if first_def >= q then begin
                let last_def = List.fold_left (fun _ k -> k) first_def defs in
                add_dep g ~src:(id last_def) ~dst:(id q)
                  (Dep.make ~kind:Dep.Flow ~latency:lat.(last_def) ~distance:1)
              end)
        uses.(q)
    done

let mem_latency latency (kind : Dep.kind_mem) (earlier : Ir.Op.t) =
  match kind with
  | Dep.Mem_flow -> Ir.Op.latency latency earlier
  | Dep.Mem_anti | Dep.Mem_output -> 1

(* Memory-ordering dependences. Only two references to the same base can
   depend ({!Memdep.test}), so the memory ops are grouped by base and
   each p visits its own group in ascending position: the edges come out
   in the (p, q) order of a scan over every ordered pair. *)
let build_memory_deps ~latency ~carried g (arr : Ir.Op.t array) =
  let n = Array.length arr in
  let is_store o = Mach.Opcode.equal (Ir.Op.opcode o) Mach.Opcode.Store in
  let group = Hashtbl.create 16 in
  for p = n - 1 downto 0 do
    match Ir.Op.addr arr.(p) with
    | None -> ()
    | Some (a : Ir.Addr.t) ->
        let members = Option.value ~default:[] (Hashtbl.find_opt group a.base) in
        Hashtbl.replace group a.base (p :: members)
  done;
  for p = 0 to n - 1 do
    match Ir.Op.addr arr.(p) with
    | None -> ()
    | Some (aa : Ir.Addr.t) ->
        let a = arr.(p) in
        List.iter
          (fun q ->
            let b = arr.(q) in
            match Ir.Op.addr b with
            | Some ab when (p <> q || carried) && (is_store a || is_store b) ->
                let kind : Dep.kind_mem =
                  match (is_store a, is_store b) with
                  | true, false -> Dep.Mem_flow
                  | false, true -> Dep.Mem_anti
                  | true, true -> Dep.Mem_output
                  | false, false -> assert false
                in
                let min_dist = if p < q then 0 else 1 in
                let emit d =
                  if d >= min_dist && (carried || d = 0) then
                    add_dep g ~src:(Ir.Op.id a) ~dst:(Ir.Op.id b)
                      (Dep.make ~kind:(Dep.Mem kind) ~latency:(mem_latency latency kind a)
                         ~distance:d)
                in
                (match Memdep.test ~earlier:aa ~later:ab with
                | Memdep.No_dep -> ()
                | Memdep.Dep_at d -> emit d
                | Memdep.Dep_all -> emit min_dist)
            | _ -> ())
          (Hashtbl.find group aa.base)
  done

let build ~latency ~carried ops =
  let arr = Array.of_list ops in
  let g = Graphlib.Digraph.create () in
  Array.iter (fun o -> Graphlib.Digraph.add_node g (Ir.Op.id o)) arr;
  (* Register edges first, then memory edges: that is the order of
     every node's [succs] and [preds]. *)
  build_register_deps ~latency ~carried g arr;
  build_memory_deps ~latency ~carried g arr;
  let tbl = Hashtbl.create (Array.length arr) in
  Array.iter (fun o -> Hashtbl.replace tbl (Ir.Op.id o) o) arr;
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
