let sort g =
  let indeg = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace indeg n (Digraph.in_degree g n)) (Digraph.nodes g);
  (* [ready] starts as the sources in ascending id and works as a stack:
     the nodes each pop releases go on its front, in successor order. The
     order is deterministic, but it is not min-id-first. *)
  let ready =
    ref (List.filter (fun n -> Hashtbl.find indeg n = 0) (Digraph.nodes g))
  in
  let out = ref [] in
  let count = ref 0 in
  while !ready <> [] do
    match !ready with
    | [] -> ()
    | n :: rest ->
        ready := rest;
        out := n :: !out;
        incr count;
        List.iter
          (fun (e : _ Digraph.edge) ->
            let d = Hashtbl.find indeg e.dst - 1 in
            Hashtbl.replace indeg e.dst d;
            if d = 0 then ready := e.dst :: !ready)
          (Digraph.succs g n)
  done;
  if !count = Digraph.node_count g then Some (List.rev !out) else None

let sort_exn g =
  match sort g with
  | Some order -> order
  | None -> invalid_arg "Topo.sort_exn: graph has a cycle"

let is_dag g = Option.is_some (sort g)

let longest_paths ~weight g =
  let order = sort_exn g in
  let dist = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace dist n 0) order;
  List.iter
    (fun n ->
      let dn = Hashtbl.find dist n in
      List.iter
        (fun (e : _ Digraph.edge) ->
          let cand = dn + weight e in
          if cand > Hashtbl.find dist e.dst then Hashtbl.replace dist e.dst cand)
        (Digraph.succs g n))
    order;
  dist

let critical_path ~weight g =
  let dist = longest_paths ~weight g in
  Hashtbl.fold (fun _ d acc -> max acc d) dist 0
