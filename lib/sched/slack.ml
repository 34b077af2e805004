type t = {
  ddg : Ddg.Graph.t;
  asap : int array;  (* by node *)
  alap : int array;
  critical_path : int;
}

(* ASAP is a forward longest path with each edge weighted by its
   dependence latency. The tail below a node v is
   max(lat v, max over out-edges (weight e + tail (dst e))): the span from
   v's issue to the last completion it transitively delays. Then
   cp = max (asap + tail) and alap v = cp - tail v. Every distance-0 edge
   points forward in body order, so body order is a topological order of
   them: one forward pass settles ASAP and one backward pass the tails,
   both over the DDG's successor rows. *)
let analyze (ddg : Ddg.Graph.t) =
  let n = Ddg.Graph.size ddg in
  let asap = Array.make n 0 in
  Array.iter
    (fun v ->
      for k = ddg.succ_off.(v) to ddg.succ_off.(v + 1) - 1 do
        if ddg.succ_dist.(k) = 0 then begin
          let w = ddg.succ_node.(k) in
          asap.(w) <- max asap.(w) (asap.(v) + ddg.succ_lat.(k))
        end
      done)
    ddg.order;
  let tail = Array.make n 0 in
  for i = n - 1 downto 0 do
    let v = ddg.order.(i) in
    let t = ref (Ddg.Graph.latency_of ddg ddg.ops.(v)) in
    for k = ddg.succ_off.(v) to ddg.succ_off.(v + 1) - 1 do
      if ddg.succ_dist.(k) = 0 then t := max !t (ddg.succ_lat.(k) + tail.(ddg.succ_node.(k)))
    done;
    tail.(v) <- !t
  done;
  let cp = ref 0 in
  for v = 0 to n - 1 do
    cp := max !cp (asap.(v) + tail.(v))
  done;
  let cp = !cp in
  { ddg; asap; alap = Array.map (fun tl -> cp - tl) tail; critical_path = cp }

let asap t id = t.asap.(Ddg.Graph.index t.ddg id)
let alap t id = t.alap.(Ddg.Graph.index t.ddg id)
let slack t id = alap t id - asap t id
let flexibility t id = slack t id + 1
let is_critical t id = slack t id = 0
let critical_path t = t.critical_path
