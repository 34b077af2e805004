type result = { colors : int Ir.Vreg.Map.t; spilled : Ir.Vreg.t list }

module G = Interference

let color ?cost ?(precolored = Ir.Vreg.Map.empty) ~k g =
  if k < 1 then invalid_arg "Color.color: k must be >= 1";
  Ir.Vreg.Map.iter
    (fun r c ->
      if c < 0 || c >= k then
        invalid_arg (Printf.sprintf "Color.color: precolour %d out of range for %s" c
                       (Ir.Vreg.to_string r)))
    precolored;
  let n = G.size g in
  let colour = Array.make n (-1) in
  Ir.Vreg.Map.iter
    (fun r c -> match G.node g r with -1 -> () | v -> colour.(v) <- c)
    precolored;
  (* Simplify. [degree] counts each node's neighbours not yet removed;
     precoloured nodes are never removed. Every remaining node before
     [from] has degree >= k, so the scan for the first low-degree node
     in node order starts there. *)
  let degree = Array.init n (G.node_degree g) in
  let removed = Array.make n false in
  let stack = Array.make n 0 and pushed = ref 0 in
  let remaining = ref 0 in
  Array.iter (fun c -> if c < 0 then incr remaining) colour;
  let waiting v = (not removed.(v)) && colour.(v) < 0 in
  (* Chaitin's occurrences/degree (the static degree), unless overridden. *)
  let spill_cost =
    lazy
      (Array.init n (fun v ->
           match cost with
           | Some f -> f (G.reg g v)
           | None ->
               float_of_int (G.node_occurrences g v) /. float_of_int (max 1 (G.node_degree g v))))
  in
  let from = ref 0 in
  while !remaining > 0 do
    let scan = ref !from in
    while !scan < n && not (waiting !scan && degree.(!scan) < k) do
      incr scan
    done;
    let v =
      if !scan < n then begin
        from := !scan;
        !scan
      end
      else begin
        (* Optimistic push of the cheapest spill candidate: the first
           strictly cheapest remaining node. *)
        let cost = Lazy.force spill_cost and best = ref (-1) in
        for u = 0 to n - 1 do
          if waiting u && (!best < 0 || cost.(u) < cost.(!best)) then best := u
        done;
        from := n;
        !best
      end
    in
    removed.(v) <- true;
    decr remaining;
    stack.(!pushed) <- v;
    incr pushed;
    G.iter_neighbors g v (fun u ->
        degree.(u) <- degree.(u) - 1;
        if degree.(u) = k - 1 && u < !from then from := u)
  done;
  (* Select: pop the stack, lowest colour no coloured neighbour holds. *)
  let taken = Array.make k (-1) in
  let colors = ref precolored and spilled = ref [] in
  for j = !pushed - 1 downto 0 do
    let v = stack.(j) in
    G.iter_neighbors g v (fun u -> if colour.(u) >= 0 then taken.(colour.(u)) <- v);
    let c = ref 0 in
    while !c < k && taken.(!c) = v do
      incr c
    done;
    if !c < k then begin
      colour.(v) <- !c;
      colors := Ir.Vreg.Map.add (G.reg g v) !c !colors
    end
    else spilled := G.reg g v :: !spilled
  done;
  { colors = !colors; spilled = List.rev !spilled }

let check g colors =
  List.fold_left
    (fun acc r ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          List.fold_left
            (fun acc m ->
              match acc with
              | Error _ as e -> e
              | Ok () -> (
                  match (Ir.Vreg.Map.find_opt r colors, Ir.Vreg.Map.find_opt m colors) with
                  | Some cr, Some cm when cr = cm ->
                      Error
                        (Printf.sprintf "%s and %s interfere but share colour %d"
                           (Ir.Vreg.to_string r) (Ir.Vreg.to_string m) cr)
                  | _ -> Ok ()))
            (Ok ()) (Interference.neighbors g r))
    (Ok ()) (Interference.registers g)
