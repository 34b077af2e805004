(* Recursive Tarjan: [strongconnect] recurses once per node along a DFS
   path, so the OCaml stack depth grows with the longest such path. *)

let tarjan g =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun (e : _ Digraph.edge) ->
        let w = e.dst in
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Digraph.succs g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      components := List.sort Int.compare comp :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (Digraph.nodes g);
  List.rev !components

let has_self_edge g v = List.exists (fun (e : _ Digraph.edge) -> e.dst = v) (Digraph.succs g v)

let nontrivial g =
  List.filter
    (function
      | [] -> false
      | [ v ] -> has_self_edge g v
      | _ :: _ :: _ -> true)
    (tarjan g)

let condensation g =
  let comps = tarjan g in
  let max_id = List.fold_left (fun acc n -> max acc n) (-1) (Digraph.nodes g) in
  let comp_of = Array.make (max_id + 1) (-1) in
  List.iteri (fun ci comp -> List.iter (fun v -> comp_of.(v) <- ci) comp) comps;
  let dag = Digraph.create () in
  List.iteri (fun ci _ -> Digraph.add_node dag ci) comps;
  let seen = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun e ->
      let a = comp_of.(e.src) and b = comp_of.(e.dst) in
      if a <> b && not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        Digraph.add_edge dag ~src:a ~dst:b ()
      end)
    g;
  (comp_of, dag)
