type 'e edge = { src : int; dst : int; label : 'e }

type 'e tables = {
  out_edges : (int, 'e edge list) Hashtbl.t; (* reversed insertion order *)
  in_edges : (int, 'e edge list) Hashtbl.t;
  mutable n_edges : int;
}

(* Forced by every operation: a [deferred] graph is filled on first use. *)
type 'e t = 'e tables Lazy.t

let tables size_hint =
  { out_edges = Hashtbl.create size_hint; in_edges = Hashtbl.create size_hint; n_edges = 0 }

let create ?(size_hint = 64) () = Lazy.from_val (tables size_hint)

let deferred ?(size_hint = 64) fill =
  lazy
    (let t = tables size_hint in
     fill (Lazy.from_val t);
     t)

let add_node t n =
  let t = Lazy.force t in
  if not (Hashtbl.mem t.out_edges n) then begin
    Hashtbl.replace t.out_edges n [];
    Hashtbl.replace t.in_edges n []
  end

let add_edge t ~src ~dst label =
  add_node t src;
  add_node t dst;
  let t = Lazy.force t in
  let e = { src; dst; label } in
  Hashtbl.replace t.out_edges src (e :: Hashtbl.find t.out_edges src);
  Hashtbl.replace t.in_edges dst (e :: Hashtbl.find t.in_edges dst);
  t.n_edges <- t.n_edges + 1

let mem_node t n = Hashtbl.mem (Lazy.force t).out_edges n

let nodes t =
  let l = Hashtbl.fold (fun n _ acc -> n :: acc) (Lazy.force t).out_edges [] in
  List.sort Int.compare l

let node_count t = Hashtbl.length (Lazy.force t).out_edges
let edge_count t = (Lazy.force t).n_edges

let succs t n =
  match Hashtbl.find_opt (Lazy.force t).out_edges n with Some l -> List.rev l | None -> []

let preds t n =
  match Hashtbl.find_opt (Lazy.force t).in_edges n with Some l -> List.rev l | None -> []

let out_degree t n = List.length (succs t n)
let in_degree t n = List.length (preds t n)

let edges t = List.concat_map (fun n -> succs t n) (nodes t)

let fold_edges f t acc = List.fold_left (fun acc e -> f e acc) acc (edges t)
let iter_edges f t = List.iter f (edges t)

let map_labels f t =
  let g = create ~size_hint:(node_count t) () in
  List.iter (add_node g) (nodes t);
  iter_edges (fun e -> add_edge g ~src:e.src ~dst:e.dst (f e.label)) t;
  g

let copy t = map_labels (fun l -> l) t

let transpose t =
  let g = create ~size_hint:(node_count t) () in
  List.iter (add_node g) (nodes t);
  iter_edges (fun e -> add_edge g ~src:e.dst ~dst:e.src e.label) t;
  g
