(* Recursive Tarjan: [connect] recurses once per node along a DFS path,
   so the OCaml stack depth grows with the longest such path. *)

(* Tarjan over the rows, calling [emit stack lo hi] for each component
   in emission order: its nodes are [stack.(lo)] to [stack.(hi - 1)],
   sorted ascending in place. *)
let search ~off ~succ emit =
  let n = Array.length off - 1 in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and stack = Array.make n 0 in
  let sp = ref 0 and counter = ref 0 in
  let rec connect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    for k = off.(v) to off.(v + 1) - 1 do
      let w = succ.(k) in
      if index.(w) < 0 then begin
        connect w;
        low.(v) <- min low.(v) low.(w)
      end
      else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
    done;
    if low.(v) = index.(v) then begin
      let hi = !sp in
      let rec bottom i = if stack.(i) = v then i else bottom (i - 1) in
      let lo = bottom (hi - 1) in
      for i = lo to hi - 1 do
        on_stack.(stack.(i)) <- false
      done;
      for i = lo + 1 to hi - 1 do
        let x = stack.(i) in
        let j = ref (i - 1) in
        while !j >= lo && stack.(!j) > x do
          stack.(!j + 1) <- stack.(!j);
          decr j
        done;
        stack.(!j + 1) <- x
      done;
      emit stack lo hi;
      sp := lo
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done

let slice stack lo hi =
  let rec go i acc = if i < lo then acc else go (i - 1) (stack.(i) :: acc) in
  go (hi - 1) []

let components ~off ~succ =
  let comps = ref [] in
  search ~off ~succ (fun stack lo hi -> comps := slice stack lo hi :: !comps);
  List.rev !comps

let has_self_edge ~off ~succ v =
  let rec go k = k < off.(v + 1) && (succ.(k) = v || go (k + 1)) in
  go off.(v)

let nontrivial_components ~off ~succ =
  let comps = ref [] in
  search ~off ~succ (fun stack lo hi ->
      if hi - lo > 1 || has_self_edge ~off ~succ stack.(lo) then
        comps := slice stack lo hi :: !comps);
  List.rev !comps

(* The graph's nodes by ascending id and its successor rows over their
   ranks. *)
let rows g =
  let ids = Array.of_list (Digraph.nodes g) in
  let n = Array.length ids in
  let rank = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace rank v i) ids;
  let off = Array.make (n + 1) 0 in
  let succs = Array.map (Digraph.succs g) ids in
  Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) succs;
  let succ = Array.make off.(n) 0 in
  Array.iteri
    (fun i l ->
      List.iteri (fun j (e : _ Digraph.edge) -> succ.(off.(i) + j) <- Hashtbl.find rank e.dst) l)
    succs;
  (ids, rank, off, succ)

let tarjan g =
  let ids, _, off, succ = rows g in
  List.map (List.map (fun v -> ids.(v))) (components ~off ~succ)

let nontrivial g =
  let ids, _, off, succ = rows g in
  List.map (List.map (fun v -> ids.(v))) (nontrivial_components ~off ~succ)

let condensation g =
  let ids, rank, off, succ = rows g in
  let comps = components ~off ~succ in
  let comp_of = Array.make (Array.length ids) (-1) in
  List.iteri (fun ci comp -> List.iter (fun v -> comp_of.(v) <- ci) comp) comps;
  let dag = Digraph.create () in
  List.iteri (fun ci _ -> Digraph.add_node dag ci) comps;
  let seen = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun e ->
      let a = comp_of.(Hashtbl.find rank e.src) and b = comp_of.(Hashtbl.find rank e.dst) in
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        Digraph.add_edge dag ~src:a ~dst:b ()
      end)
    g;
  (comp_of, dag)
