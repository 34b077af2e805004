type t = {
  latency : Mach.Latency.t;
  body : Ir.Op.t list;
  ops : Ir.Op.t array;
  ids : int array;
  order : int array;
  position : int array;
  pred_off : int array;
  pred_node : int array;
  pred_lat : int array;
  pred_dist : int array;
  pred_kind : int array;
  succ_off : int array;
  succ_node : int array;
  succ_lat : int array;
  succ_dist : int array;
  succ_kind : int array;
  succ_edge : int array;
  upper_bound : int;
  graph : Dep.t Graphlib.Digraph.t;
}

let size t = Array.length t.ids
let edge_count t = Array.length t.succ_node
let ops_in_order t = t.body
let latency_of t o = Ir.Op.latency t.latency o

(* Ids are usually consecutive, so the rank is tried as an offset from
   the smallest id before bisecting. *)
let index t id =
  let ids = t.ids in
  let n = Array.length ids in
  if n = 0 then raise Not_found;
  let guess = id - ids.(0) in
  if guess >= 0 && guess < n && ids.(guess) = id then guess
  else
    let rec go lo hi =
      if lo >= hi then raise Not_found
      else
        let mid = (lo + hi) / 2 in
        let c = Int.compare id ids.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 n

let op t id = t.ops.(index t id)

let label ~kind ~latency ~distance = Dep.make ~kind:(Dep.kind_of_rank kind) ~latency ~distance
let succ_label t k = label ~kind:t.succ_kind.(k) ~latency:t.succ_lat.(k) ~distance:t.succ_dist.(k)
let pred_label t k = label ~kind:t.pred_kind.(k) ~latency:t.pred_lat.(k) ~distance:t.pred_dist.(k)

let succs t id =
  let v = index t id in
  List.init (t.succ_off.(v + 1) - t.succ_off.(v)) (fun j ->
      let k = t.succ_off.(v) + j in
      (t.ids.(t.succ_node.(k)), succ_label t k))

let preds t id =
  let v = index t id in
  List.init (t.pred_off.(v + 1) - t.pred_off.(v)) (fun j ->
      let k = t.pred_off.(v) + j in
      (t.ids.(t.pred_node.(k)), pred_label t k))

(* The edges as they are emitted, one growable int array per field.
   The arrays start at two edges per op, so a body of up to ~120 ops
   allocates them on the minor heap. *)
type emitter = {
  mutable src : int array;  (* nodes *)
  mutable dst : int array;
  mutable kind : int array;
  mutable lat : int array;
  mutable dist : int array;
  mutable m : int;
}

let emitter n =
  let cap = (2 * n) + 8 in
  let a () = Array.make cap 0 in
  { src = a (); dst = a (); kind = a (); lat = a (); dist = a (); m = 0 }

let emit e src dst kind latency distance =
  if e.m = Array.length e.src then begin
    let grow a =
      let b = Array.make (2 * e.m) 0 in
      Array.blit a 0 b 0 e.m;
      b
    in
    e.src <- grow e.src;
    e.dst <- grow e.dst;
    e.kind <- grow e.kind;
    e.lat <- grow e.lat;
    e.dist <- grow e.dist
  end;
  let j = e.m in
  e.src.(j) <- src;
  e.dst.(j) <- dst;
  e.kind.(j) <- kind;
  e.lat.(j) <- latency;
  e.dist.(j) <- distance;
  e.m <- j + 1

let flow = Dep.kind_rank Dep.Flow
let anti = Dep.kind_rank Dep.Anti
let output = Dep.kind_rank Dep.Output
let mem_rank kind = Dep.kind_rank (Dep.Mem kind)

let rec mem_int x = function [] -> false | y :: rest -> x = y || mem_int x rest

(* Register dependences between the ops of one body, [node.(p)] being
   position [p]'s node. [carried] selects whether cross-iteration
   (distance 1) edges are generated.

   Registers are numbered densely as they first appear, and each gets
   ascending position tables of the ops defining and using it. A pair
   (p, q), p < q, can only carry a register edge when q uses or defines
   the register p defines, or defines one p uses; so each p visits just
   those q, in ascending order, and runs the flow / anti / output checks
   on them. The edges come out in the (p, q, kind) order of a scan over
   every pair: the emission order the rows keep. *)
let build_register_deps ~carried e ~node ~lat (arr : Ir.Op.t array) =
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
    (* Few candidates: sorted in place by insertion. *)
    for i = 1 to !count - 1 do
      let q = cand.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && cand.(!j) > q do
        cand.(!j + 1) <- cand.(!j);
        decr j
      done;
      cand.(!j + 1) <- q
    done;
    (* p's flow edges stop at the next def of its register. *)
    let next_def = if d >= 0 then first_after p defs_at.(d) else max_int in
    for i = 0 to !count - 1 do
      let q = cand.(i) in
      (* flow: p defines r, q uses r, no def of r strictly between *)
      if d >= 0 && mem_int d uses.(q) && not (next_def < q) then
        emit e node.(p) node.(q) flow lat.(p) 0;
      let dq = def.(q) in
      if dq >= 0 then begin
        (* anti: p uses r, q defines r — but only when the use reads a
           same-iteration value. A use with no def before it reads the
           previous iteration's instance, which modulo variable expansion
           renames apart from the def at q, so no ordering is required
           (the induction-variable idiom: users read iv, the bottom update
           writes the next iteration's iv). *)
        if mem_int dq uses.(p) && ((not carried) || List.hd defs_at.(dq) < p) then
          emit e node.(p) node.(q) anti 0 0;
        (* output: both define r *)
        if dq = d then emit e node.(p) node.(q) output 1 0
      end
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
      List.iter
        (fun r ->
          match defs_at.(r) with
          | [] -> () (* loop invariant *)
          | first_def :: _ as defs ->
              if first_def >= q then begin
                let last_def = List.fold_left (fun _ k -> k) first_def defs in
                emit e node.(last_def) node.(q) flow lat.(last_def) 1
              end)
        uses.(q)
    done

(* Memory-ordering dependences. Only two references to the same base can
   depend ({!Memdep.test}), so the memory ops are grouped by base and
   each p visits its own group in ascending position: the edges come out
   in the (p, q) order of a scan over every ordered pair. *)
let build_memory_deps ~carried e ~node ~lat (arr : Ir.Op.t array) =
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
                let latency = match kind with Dep.Mem_flow -> lat.(p) | _ -> 1 in
                let rank = mem_rank kind in
                let min_dist = if p < q then 0 else 1 in
                let emit_at d =
                  if d >= min_dist && (carried || d = 0) then
                    emit e node.(p) node.(q) rank latency d
                in
                (match Memdep.test ~earlier:aa ~later:ab with
                | Memdep.No_dep -> ()
                | Memdep.Dep_at d -> emit_at d
                | Memdep.Dep_all -> emit_at min_dist)
            | _ -> ())
          (Hashtbl.find group aa.base)
  done

(* Compressed rows of the emitted edges keyed on [key] (their source
   or destination), each slot holding the other end, [far]: one stable
   counting sort, so every row keeps emission order. [edge.(k)] is slot
   [k]'s emission index when [numbered]. *)
let rows n (e : emitter) ~key ~far ~numbered =
  let m = e.m in
  let off = Array.make (n + 1) 0 in
  for j = 0 to m - 1 do
    off.(key.(j) + 1) <- off.(key.(j) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let next = Array.sub off 0 n in
  let node = Array.make m 0 and lat = Array.make m 0 in
  let dist = Array.make m 0 and kind = Array.make m 0 in
  let edge = if numbered then Array.make m 0 else [||] in
  for j = 0 to m - 1 do
    let v = key.(j) in
    let k = next.(v) in
    next.(v) <- k + 1;
    node.(k) <- far.(j);
    kind.(k) <- e.kind.(j);
    lat.(k) <- e.lat.(j);
    dist.(k) <- e.dist.(j);
    if numbered then edge.(k) <- j
  done;
  (off, node, lat, dist, kind, edge)

(* [f src k] for every successor slot [k], in emission order. *)
let iter_emitted ~succ_off ~succ_edge f =
  let m = Array.length succ_edge in
  let slot = Array.make m 0 and src = Array.make m 0 in
  for v = 0 to Array.length succ_off - 2 do
    for k = succ_off.(v) to succ_off.(v + 1) - 1 do
      slot.(succ_edge.(k)) <- k;
      src.(k) <- v
    done
  done;
  Array.iter (fun k -> f src.(k) k) slot

let digraph ids =
  let g = Graphlib.Digraph.create ~size_hint:(Array.length ids) () in
  Array.iter (Graphlib.Digraph.add_node g) ids;
  g

let graph t = t.graph

let make ~latency ~body ~ops ~ids ~order ~position ~upper_bound e =
  let n = Array.length ids in
  let pred_off, pred_node, pred_lat, pred_dist, pred_kind, _ =
    rows n e ~key:e.dst ~far:e.src ~numbered:false
  in
  let succ_off, succ_node, succ_lat, succ_dist, succ_kind, succ_edge =
    rows n e ~key:e.src ~far:e.dst ~numbered:true
  in
  (* The rows as a Digraph, filled in emission order on first use. *)
  let graph =
    Graphlib.Digraph.deferred ~size_hint:n (fun g ->
        Array.iter (Graphlib.Digraph.add_node g) ids;
        iter_emitted ~succ_off ~succ_edge (fun v k ->
            Graphlib.Digraph.add_edge g ~src:ids.(v) ~dst:ids.(succ_node.(k))
              (label ~kind:succ_kind.(k) ~latency:succ_lat.(k) ~distance:succ_dist.(k))))
  in
  {
    latency;
    body;
    ops;
    ids;
    order;
    position;
    pred_off;
    pred_node;
    pred_lat;
    pred_dist;
    pred_kind;
    succ_off;
    succ_node;
    succ_lat;
    succ_dist;
    succ_kind;
    succ_edge;
    upper_bound;
    graph;
  }

let build ~latency ~carried body =
  let arr = Array.of_list body in
  let n = Array.length arr in
  (* Nodes are id ranks: [position] lists the body positions by
     ascending id (the identity when the body is numbered in order). *)
  let position = Array.init n Fun.id in
  let id p = Ir.Op.id arr.(p) in
  let rec ascending p = p >= n - 1 || (id p < id (p + 1) && ascending (p + 1)) in
  if not (ascending 0) then Array.sort (fun a b -> Int.compare (id a) (id b)) position;
  let order = Array.make n 0 in
  Array.iteri (fun v p -> order.(p) <- v) position;
  let lat = Array.map (Ir.Op.latency latency) arr in
  (* Register edges first, then memory edges: that is the order of
     every row. *)
  let e = emitter n in
  build_register_deps ~carried e ~node:order ~lat arr;
  build_memory_deps ~carried e ~node:order ~lat arr;
  make ~latency ~body
    ~ops:(Array.map (fun p -> arr.(p)) position)
    ~ids:(Array.map id position) ~order ~position
    ~upper_bound:(Array.fold_left ( + ) 1 lat)
    e

let of_loop ?(latency = Mach.Latency.paper) loop =
  build ~latency ~carried:true (Ir.Loop.ops loop)

let of_block ?(latency = Mach.Latency.paper) block =
  build ~latency ~carried:false (Ir.Block.ops block)

let add_edges t extra =
  let e = emitter (size t) in
  iter_emitted ~succ_off:t.succ_off ~succ_edge:t.succ_edge (fun v k ->
      emit e v t.succ_node.(k) t.succ_kind.(k) t.succ_lat.(k) t.succ_dist.(k));
  List.iter
    (fun (src, dst, d) ->
      emit e (index t src) (index t dst)
        (Dep.kind_rank (Dep.kind d))
        (Dep.latency d) (Dep.distance d))
    extra;
  make ~latency:t.latency ~body:t.body ~ops:t.ops ~ids:t.ids ~order:t.order
    ~position:t.position ~upper_bound:t.upper_bound e

(* Relaxation order does not change the fixpoint, only how many rounds
   reach it; most edges point to a larger id, so sources are visited in
   descending node order and a round settles a chain from its sink up. *)
let heights t ~ii =
  let n = size t in
  let h = Array.make n 0 in
  let relax () =
    let changed = ref false in
    for src = n - 1 downto 0 do
      for k = t.succ_off.(src) to t.succ_off.(src + 1) - 1 do
        let cand = h.(t.succ_node.(k)) + (t.succ_lat.(k) - (ii * t.succ_dist.(k))) in
        if cand > h.(src) then begin
          h.(src) <- cand;
          changed := true
        end
      done
    done;
    !changed
  in
  let rec run i = if i > n + 1 then None else if relax () then run (i + 1) else Some h in
  run 0

let self_edges_feasible t ~ii =
  let ok = ref true in
  for src = 0 to size t - 1 do
    for k = t.succ_off.(src) to t.succ_off.(src + 1) - 1 do
      if t.succ_node.(k) = src && t.succ_lat.(k) > ii * t.succ_dist.(k) then ok := false
    done
  done;
  !ok

let loop_independent t =
  let g = digraph t.ids in
  for v = 0 to size t - 1 do
    for k = t.succ_off.(v) to t.succ_off.(v + 1) - 1 do
      if t.succ_dist.(k) = 0 then
        Graphlib.Digraph.add_edge g ~src:t.ids.(v) ~dst:t.ids.(t.succ_node.(k)) (succ_label t k)
    done
  done;
  g

(* Body order is a topological order of the distance-0 edges: one
   forward pass settles every node's longest incoming chain. *)
let critical_path_length t =
  let n = size t in
  let dist = Array.make n 0 and best = ref 0 in
  Array.iter
    (fun v ->
      for k = t.succ_off.(v) to t.succ_off.(v + 1) - 1 do
        if t.succ_dist.(k) = 0 then begin
          let w = t.succ_node.(k) in
          dist.(w) <- max dist.(w) (dist.(v) + t.succ_lat.(k))
        end
      done;
      best := max !best (dist.(v) + latency_of t t.ops.(v)))
    t.order;
  !best

let pp ppf t =
  Format.fprintf ppf "@[<v>ddg (%d ops, %d edges):@," (size t) (edge_count t);
  Array.iter
    (fun v ->
      Format.fprintf ppf "  %a@," Ir.Op.pp t.ops.(v);
      for k = t.succ_off.(v) to t.succ_off.(v + 1) - 1 do
        Format.fprintf ppf "    -> op%d %a@," t.ids.(t.succ_node.(k)) Dep.pp (succ_label t k)
      done)
    t.order;
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ddg {\n  node [shape=box];\n";
  Array.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\"];\n" t.ids.(v)
           (String.map (fun c -> if c = '"' then '\'' else c) (Ir.Op.to_string t.ops.(v)))))
    t.order;
  for v = 0 to size t - 1 do
    for k = t.succ_off.(v) to t.succ_off.(v + 1) - 1 do
      let style =
        match Dep.kind_of_rank t.succ_kind.(k) with
        | Dep.Flow -> "solid"
        | Dep.Anti -> "dotted"
        | Dep.Output | Dep.Mem _ -> "dashed"
      in
      let label =
        if t.succ_dist.(k) > 0 then Printf.sprintf "%d (d%d)" t.succ_lat.(k) t.succ_dist.(k)
        else string_of_int t.succ_lat.(k)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\", style=%s];\n" t.ids.(v)
           t.ids.(t.succ_node.(k)) label style)
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
