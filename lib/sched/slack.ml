type t = {
  index : (int, int) Hashtbl.t;  (* op id -> body position *)
  asap : int array;  (* by body position *)
  alap : int array;
  critical_path : int;
}

(* ASAP is a forward longest path with each edge weighted by its
   dependence latency. The tail below a node v is
   max(lat v, max over out-edges (weight e + tail (dst e))): the span from
   v's issue to the last completion it transitively delays. Then
   cp = max (asap + tail) and alap v = cp - tail v. Every distance-0 edge
   points forward in body order, so body order is a topological order of
   them: one forward pass settles ASAP and one backward pass the tails. *)
let analyze ddg =
  let order = Array.of_list ddg.Ddg.Graph.order in
  let n = Array.length order in
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index id i) order;
  let g = Ddg.Graph.graph ddg in
  (* The distance-0 out-edges of each node, as (position, latency). *)
  let succs =
    Array.map
      (fun id ->
        List.filter_map
          (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
            if Ddg.Dep.distance e.label = 0 then
              Some (Hashtbl.find index e.dst, Ddg.Dep.latency e.label)
            else None)
          (Graphlib.Digraph.succs g id))
      order
  in
  let asap = Array.make n 0 in
  for i = 0 to n - 1 do
    List.iter (fun (j, lat) -> asap.(j) <- max asap.(j) (asap.(i) + lat)) succs.(i)
  done;
  let tail = Array.make n 0 in
  for i = n - 1 downto 0 do
    let own = Ddg.Graph.latency_of ddg (Ddg.Graph.op ddg order.(i)) in
    tail.(i) <- List.fold_left (fun acc (j, lat) -> max acc (lat + tail.(j))) own succs.(i)
  done;
  let cp = ref 0 in
  for i = 0 to n - 1 do
    cp := max !cp (asap.(i) + tail.(i))
  done;
  let cp = !cp in
  { index; asap; alap = Array.map (fun tl -> cp - tl) tail; critical_path = cp }

let asap t id = t.asap.(Hashtbl.find t.index id)
let alap t id = t.alap.(Hashtbl.find t.index id)
let slack t id = alap t id - asap t id
let flexibility t id = slack t id + 1
let is_critical t id = slack t id = 0
let critical_path t = t.critical_path
