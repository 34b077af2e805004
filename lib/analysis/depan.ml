type edge = {
  src : int;
  dst : int;
  kind : Ddg.Dep.kind;
  latency : int;
  distance : int;
}

let kind_rank = Ddg.Dep.kind_rank
let kind_of_rank = Ddg.Dep.kind_of_rank

type t = {
  count : int;
  srcs : int array;
  dsts : int array;
  ranks : int array;
  distances : int array;
  latencies : int array;
  reachdef : Reachdef.t;
  stats : Solver.stats;
}

(* Gathered edges, five ints apiece: src and dst body positions, kind
   rank, distance, latency. *)
type buf = { mutable data : int array; mutable len : int }

let emit b src dst rank distance latency =
  if b.len + 5 > Array.length b.data then begin
    let data = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  let d = b.data and o = b.len in
  d.(o) <- src;
  d.(o + 1) <- dst;
  d.(o + 2) <- rank;
  d.(o + 3) <- distance;
  d.(o + 4) <- latency;
  b.len <- o + 5

let of_loop ?(latency = Mach.Latency.paper) loop =
  let arr = Array.of_list (Ir.Loop.ops loop) in
  let n = Array.length arr in
  let rd = Reachdef.of_loop loop in
  let id = Array.map Ir.Op.id arr in
  let lat = Array.map (Ir.Op.latency latency) arr in
  (* A register's slots are its defining positions, ascending. Op ids
     are unique within a body, so a position's id names it. *)
  let regs = rd.Reachdef.regs and first = rd.Reachdef.first and def_pos = rd.Reachdef.def_pos in
  let nregs = Ir.Vreg.Dense.size regs in
  let b = { data = Array.make (16 * (n + 1)) 0; len = 0 } in
  (* [seen.(k) = q]: register [k] was already handled as a use of op [q]. *)
  let seen = Array.make nregs (-1) in
  for q = 0 to n - 1 do
    List.iter
      (fun r ->
        let k = Ir.Vreg.Dense.find regs r in
        (* Never defined: an invariant, which reaches from nowhere. *)
        if k >= 0 && seen.(k) <> q then begin
          seen.(k) <- q;
          (* Flow: the definition a use reads, at its iteration distance,
             is by construction a flow dependence at that distance. *)
          let reads_current = ref false in
          for s = first.(k) to first.(k + 1) - 1 do
            let d = Reachdef.distance rd ~pos:q s in
            if d <= Reachdef.dist_cap then begin
              emit b def_pos.(s) q 0 d lat.(def_pos.(s));
              if d = 0 then reads_current := true
            end
          done;
          (* Anti: a same-iteration read pins every later redefinition of
             the register behind it. A read at distance >= 1 consumes the
             previous iteration's instance, which expansion renames, so it
             constrains nothing. *)
          if !reads_current then
            for s = first.(k) to first.(k + 1) - 1 do
              if def_pos.(s) > q then emit b q def_pos.(s) 1 0 0
            done
        end)
      (Ir.Op.uses arr.(q))
  done;
  (* Output: every textual pair of definitions of one register, in
     order, must retire in order within an iteration. *)
  for k = 0 to nregs - 1 do
    for s = first.(k) to first.(k + 1) - 1 do
      for s' = s + 1 to first.(k + 1) - 1 do
        emit b def_pos.(s) def_pos.(s') 2 0 1
      done
    done
  done;
  (* Memory ordering via the abstract address domain: only accesses to
     one base can depend on each other, so pair up each base's memory
     ops. *)
  let bases = ref [] in
  for p = n - 1 downto 0 do
    match Aaddr.of_op arr.(p) with
    | None -> ()
    | Some a -> (
        let base = a.Aaddr.addr.Ir.Addr.base in
        match List.find_opt (fun (x, _) -> String.equal x base) !bases with
        | Some (_, group) -> group := (p, a) :: !group
        | None -> bases := (base, ref [ (p, a) ]) :: !bases)
  done;
  List.iter
    (fun (_, group) ->
      List.iter
        (fun (p, (a : Aaddr.t)) ->
          List.iter
            (fun (q, (bq : Aaddr.t)) ->
              if a.store || bq.store then begin
                (* flow, anti, output *)
                let rank = if not bq.store then 3 else if a.store then 5 else 4 in
                let mem_lat = if rank = 3 then lat.(p) else 1 in
                (* A dependence into an earlier (or the same) textual
                   position needs at least one back-edge crossing. *)
                let min_dist = if p < q then 0 else 1 in
                match Aaddr.dependence ~src:a ~dst:bq with
                | Aaddr.Independent -> ()
                | Aaddr.At d -> if d >= min_dist then emit b p q rank d mem_lat
                | Aaddr.All -> emit b p q rank min_dist mem_lat
              end)
            !group)
        !group)
    !bases;
  (* Every edge was emitted once: an op defines one register, an op's
     use of a register is handled once, and each pair of memory ops is
     visited once. Sort on (src id, dst id, kind rank, distance). Ids
     are unique, so positions ranked by id order them: a counting sort
     on the source's rank, then an insertion sort of each source's
     (short) run. *)
  let by_id = Array.init n Fun.id in
  let ascending = ref true in
  for i = 1 to n - 1 do
    if id.(i) < id.(i - 1) then ascending := false
  done;
  if not !ascending then Array.sort (fun x y -> Int.compare id.(x) id.(y)) by_id;
  let idrank = Array.make n 0 in
  Array.iteri (fun k p -> idrank.(p) <- k) by_id;
  let d = b.data and m = b.len / 5 in
  let start = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let r = idrank.(d.(5 * e)) in
    start.(r + 1) <- start.(r + 1) + 1
  done;
  for r = 0 to n - 1 do
    start.(r + 1) <- start.(r + 1) + start.(r)
  done;
  let order = Array.make m 0 and fill = Array.sub start 0 n in
  for e = 0 to m - 1 do
    let r = idrank.(d.(5 * e)) in
    order.(fill.(r)) <- e;
    fill.(r) <- fill.(r) + 1
  done;
  (* Within one source: (dst rank, kind rank, distance) of [e] below [f]. *)
  let below e f =
    let x = idrank.(d.((5 * e) + 1)) and y = idrank.(d.((5 * f) + 1)) in
    x < y
    || x = y
       && (d.((5 * e) + 2) < d.((5 * f) + 2)
          || (d.((5 * e) + 2) = d.((5 * f) + 2) && d.((5 * e) + 3) < d.((5 * f) + 3)))
  in
  for r = 0 to n - 1 do
    for i = start.(r) + 1 to start.(r + 1) - 1 do
      let e = order.(i) in
      let j = ref (i - 1) in
      while !j >= start.(r) && below e order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- e
    done
  done;
  let field f = Array.map (fun e -> d.((5 * e) + f)) order in
  let pos_field f = Array.map (fun e -> id.(d.((5 * e) + f))) order in
  {
    count = m;
    srcs = pos_field 0;
    dsts = pos_field 1;
    ranks = field 2;
    distances = field 3;
    latencies = field 4;
    reachdef = rd;
    stats = rd.Reachdef.stats;
  }

let edges t =
  List.init t.count (fun j ->
      {
        src = t.srcs.(j);
        dst = t.dsts.(j);
        kind = kind_of_rank t.ranks.(j);
        latency = t.latencies.(j);
        distance = t.distances.(j);
      })

let edge_to_string e =
  Printf.sprintf "op%d -> op%d %s lat=%d dist=%d" e.src e.dst
    (Ddg.Dep.kind_to_string e.kind)
    e.latency e.distance
