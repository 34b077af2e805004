(* Construction accumulates into slots, one per node in order of first
   appearance: a slot holds the node's weight and its neighbours' slots
   with the edge weights, found by a linear scan (register component
   graphs have small degrees). Reads go through a view, built on the
   first read after a change, in which node [i] is the [i]-th smallest
   id (its rank) and each rank's neighbours form one row sorted by rank.
   Every array is per node, so none outgrows the minor heap. *)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type view = {
  rank : int array;  (* slot -> rank *)
  ids : int array;  (* rank -> node id, ascending *)
  row : int array array;  (* rank -> neighbour ranks, ascending *)
  row_w : float array array;  (* rank -> edge weights, parallel to [row] *)
}

type t = {
  slot : int Itbl.t;  (* node id -> slot *)
  mutable id : int array;  (* slot -> node id *)
  mutable node_w : float array;  (* slot -> accumulated weight *)
  mutable adj : int array array;  (* slot -> neighbour slots, first [deg] used *)
  mutable adj_w : float array array;  (* slot -> accumulated edge weights *)
  mutable deg : int array;
  mutable edges : int;
  mutable view : view option;
}

let create ?(size_hint = 64) () =
  {
    slot = Itbl.create size_hint;
    id = [||];
    node_w = [||];
    adj = [||];
    adj_w = [||];
    deg = [||];
    edges = 0;
    view = None;
  }

(* [a] with room for index [i], doubling; new cells hold [fill]. *)
let grow a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * i)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let slot_of t n =
  match Itbl.find t.slot n with
  | s -> s
  | exception Not_found ->
      t.view <- None;
      let s = Itbl.length t.slot in
      Itbl.add t.slot n s;
      t.id <- grow t.id s 0;
      t.id.(s) <- n;
      t.node_w <- grow t.node_w s 0.0;
      t.adj <- grow t.adj s [||];
      t.adj_w <- grow t.adj_w s [||];
      t.deg <- grow t.deg s 0;
      s

let add_node t n = ignore (slot_of t n)
let slot = slot_of
let add_node_weight_at t s w = t.node_w.(s) <- t.node_w.(s) +. w

let add_node_weight t n w = add_node_weight_at t (slot_of t n) w

(* Position of slot [b] among slot [a]'s neighbours, or -1. *)
let find_adj t a b =
  let l = t.adj.(a) in
  let rec go k = if k < 0 then -1 else if l.(k) = b then k else go (k - 1) in
  go (t.deg.(a) - 1)

(* Adds [w] onto the [a] -> [b] half of an edge, creating it at 0;
   true when it was created. *)
let bump t a b w =
  let k = find_adj t a b in
  if k >= 0 then begin
    t.adj_w.(a).(k) <- t.adj_w.(a).(k) +. w;
    false
  end
  else begin
    let k = t.deg.(a) in
    t.adj.(a) <- grow t.adj.(a) k 0;
    t.adj_w.(a) <- grow t.adj_w.(a) k 0.0;
    t.adj.(a).(k) <- b;
    t.adj_w.(a).(k) <- 0.0 +. w;
    t.deg.(a) <- k + 1;
    true
  end

let add_edge_weight_at t sa sb w =
  if sa = sb then invalid_arg "Ungraph.add_edge_weight: self edge";
  t.view <- None;
  if bump t sa sb w then t.edges <- t.edges + 1;
  ignore (bump t sb sa w)

let add_edge_weight t a b w =
  if a = b then invalid_arg "Ungraph.add_edge_weight: self edge";
  let sa = slot_of t a in
  add_edge_weight_at t sa (slot_of t b) w

let mem_node t n = Itbl.mem t.slot n
let node_count t = Itbl.length t.slot
let edge_count t = t.edges

let node_weight t n =
  match Itbl.find_opt t.slot n with Some s -> t.node_w.(s) | None -> 0.0

let edge_index t a b =
  match (Itbl.find_opt t.slot a, Itbl.find_opt t.slot b) with
  | Some sa, Some sb -> (sa, find_adj t sa sb)
  | _ -> (-1, -1)

let edge_weight t a b =
  match edge_index t a b with sa, k when k >= 0 -> t.adj_w.(sa).(k) | _ -> 0.0

let mem_edge t a b = snd (edge_index t a b) >= 0

let degree t n = match Itbl.find_opt t.slot n with Some s -> t.deg.(s) | None -> 0

let freeze t =
  let n = node_count t in
  let by_rank = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare t.id.(a) t.id.(b)) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun i s -> rank.(s) <- i) by_rank;
  let row = Array.map (fun s -> Array.make t.deg.(s) 0) by_rank in
  let row_w = Array.map (fun s -> Array.make t.deg.(s) 0.0) by_rank in
  let fill = Array.make n 0 in
  (* Visiting the ranks in ascending order appends each one to its
     neighbours' rows in ascending order. The two halves of an edge hold
     the same weight. *)
  Array.iteri
    (fun i s ->
      for k = 0 to t.deg.(s) - 1 do
        let j = rank.(t.adj.(s).(k)) in
        row.(j).(fill.(j)) <- i;
        row_w.(j).(fill.(j)) <- t.adj_w.(s).(k);
        fill.(j) <- fill.(j) + 1
      done)
    by_rank;
  { rank; ids = Array.map (fun s -> t.id.(s)) by_rank; row; row_w }

let view t =
  match t.view with
  | Some v -> v
  | None ->
      let v = freeze t in
      t.view <- Some v;
      v

let node_of_rank t i = (view t).ids.(i)

let iter_row t i f =
  let v = view t in
  Array.iteri (fun k j -> f j v.row_w.(i).(k)) v.row.(i)

let nodes t = Array.to_list (view t).ids

let neighbors t n =
  match Itbl.find_opt t.slot n with
  | None -> []
  | Some s ->
      let v = view t in
      let i = v.rank.(s) in
      List.init (Array.length v.row.(i)) (fun k -> (v.ids.(v.row.(i).(k)), v.row_w.(i).(k)))

let edges t =
  let v = view t in
  let acc = ref [] in
  for i = Array.length v.ids - 1 downto 0 do
    for k = Array.length v.row.(i) - 1 downto 0 do
      let j = v.row.(i).(k) in
      if i < j then acc := (v.ids.(i), v.ids.(j), v.row_w.(i).(k)) :: !acc
    done
  done;
  !acc

let components t =
  let v = view t in
  let seen = Array.make (Array.length v.ids) false in
  let rec dfs acc i =
    if seen.(i) then acc
    else begin
      seen.(i) <- true;
      Array.fold_left dfs (i :: acc) v.row.(i)
    end
  in
  List.filter_map
    (fun i ->
      if seen.(i) then None
      else Some (List.map (fun i -> v.ids.(i)) (List.sort Int.compare (dfs [] i))))
    (List.init (Array.length v.ids) Fun.id)

let copy t =
  {
    slot = Itbl.copy t.slot;
    id = Array.copy t.id;
    node_w = Array.copy t.node_w;
    adj = Array.map Array.copy t.adj;
    adj_w = Array.map Array.copy t.adj_w;
    deg = Array.copy t.deg;
    edges = t.edges;
    view = None;
  }
