type t = {
  ids : int array;
  pred_off : int array;
  pred_node : int array;
  pred_lat : int array;
  pred_dist : int array;
  succ_off : int array;
  succ_node : int array;
  succ_lat : int array;
  succ_dist : int array;
}

let search ids id =
  let rec go lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare id ids.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length ids)

(* Compressed rows of [adj id], each edge mapped to its far endpoint. *)
let rows ids adj far =
  let n = Array.length ids in
  let lists = Array.map adj ids in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) lists;
  let m = off.(n) in
  let node = Array.make m 0 and lat = Array.make m 0 and dist = Array.make m 0 in
  Array.iteri
    (fun i l ->
      List.iteri
        (fun j (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
          let k = off.(i) + j in
          node.(k) <- search ids (far e);
          lat.(k) <- Ddg.Dep.latency e.label;
          dist.(k) <- Ddg.Dep.distance e.label)
        l)
    lists;
  (off, node, lat, dist)

let of_ddg ddg =
  let g = Ddg.Graph.graph ddg in
  let ids = Array.of_list (Graphlib.Digraph.nodes g) in
  let pred_off, pred_node, pred_lat, pred_dist =
    rows ids (Graphlib.Digraph.preds g) (fun e -> e.src)
  in
  let succ_off, succ_node, succ_lat, succ_dist =
    rows ids (Graphlib.Digraph.succs g) (fun e -> e.dst)
  in
  { ids; pred_off; pred_node; pred_lat; pred_dist; succ_off; succ_node; succ_lat; succ_dist }

let size v = Array.length v.ids
let index v id = search v.ids id

let heights v ~ii =
  let n = size v in
  let h = Array.make n 0 in
  let relax () =
    let changed = ref false in
    for src = 0 to n - 1 do
      for k = v.succ_off.(src) to v.succ_off.(src + 1) - 1 do
        let cand = h.(v.succ_node.(k)) + (v.succ_lat.(k) - (ii * v.succ_dist.(k))) in
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

let self_edges_feasible v ~ii =
  let ok = ref true in
  for src = 0 to size v - 1 do
    for k = v.succ_off.(src) to v.succ_off.(src + 1) - 1 do
      if v.succ_node.(k) = src && v.succ_lat.(k) > ii * v.succ_dist.(k) then ok := false
    done
  done;
  !ok
