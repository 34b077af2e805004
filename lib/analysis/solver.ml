type stats = { iterations : int; widenings : int; converged : bool }

module type PROBLEM = sig
  module D : Lattice.DOMAIN

  val transfer : int -> D.t -> D.t
  val edge : src:int -> dst:int -> D.t -> D.t
end

(* Compressed rows: row [v] is [adj.(start.(v)) .. adj.(start.(v+1) - 1)],
   ascending and without duplicates. [row] picks the row an edge
   belongs to and [member] the node it adds to that row. *)
let csr nodes edges ~row ~member =
  let start = Array.make (nodes + 1) 0 in
  List.iter (fun e -> start.(row e + 1) <- start.(row e + 1) + 1) edges;
  for v = 0 to nodes - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let adj = Array.make start.(nodes) 0 in
  let fill = Array.sub start 0 nodes in
  List.iter
    (fun e ->
      let v = row e in
      adj.(fill.(v)) <- member e;
      fill.(v) <- fill.(v) + 1)
    edges;
  (* Sort each row (insertion sort: rows are short) and squeeze out
     duplicates, compacting the rows leftwards in place. *)
  let w = ref 0 in
  for v = 0 to nodes - 1 do
    let lo = start.(v) and hi = start.(v + 1) in
    for i = lo + 1 to hi - 1 do
      let x = adj.(i) in
      let j = ref (i - 1) in
      while !j >= lo && adj.(!j) > x do
        adj.(!j + 1) <- adj.(!j);
        decr j
      done;
      adj.(!j + 1) <- x
    done;
    start.(v) <- !w;
    for i = lo to hi - 1 do
      if i = lo || adj.(i) <> adj.(i - 1) then begin
        adj.(!w) <- adj.(i);
        incr w
      end
    done
  done;
  start.(nodes) <- !w;
  (start, adj)

module Make (P : PROBLEM) = struct
  module D = P.D

  type result = { input : D.t array; output : D.t array; stats : stats }

  let solve ?(widen_after = 8) ?max_iterations ~nodes ~edges ~init () =
    let max_iterations =
      match max_iterations with Some m -> m | None -> max 256 (64 * nodes)
    in
    List.iter
      (fun (src, dst) ->
        if src < 0 || src >= nodes || dst < 0 || dst >= nodes then
          invalid_arg "Solver.solve: edge endpoint out of range")
      edges;
    (* Deterministic propagation order: predecessors in ascending node
       order, successors likewise. *)
    let pstart, preds = csr nodes edges ~row:snd ~member:fst in
    let sstart, succs = csr nodes edges ~row:fst ~member:snd in
    let boundary = Array.init nodes init in
    let input = Array.copy boundary in
    let output = Array.init nodes (fun i -> P.transfer i input.(i)) in
    let updates = Array.make nodes 0 in
    let queued = Array.make nodes true in
    (* FIFO worklist: a ring of node numbers. A node is queued at most
       once at a time, so [nodes] slots suffice. *)
    let ring = Array.init nodes Fun.id in
    let head = ref 0 and length = ref nodes in
    let iterations = ref 0 in
    let widenings = ref 0 in
    let converged = ref true in
    while !length > 0 do
      let v = ring.(!head) in
      head := if !head + 1 = nodes then 0 else !head + 1;
      decr length;
      queued.(v) <- false;
      if !iterations >= max_iterations then begin
        converged := false;
        length := 0
      end
      else begin
        incr iterations;
        let contribution = ref boundary.(v) in
        for k = pstart.(v) to pstart.(v + 1) - 1 do
          let p = preds.(k) in
          contribution := D.join !contribution (P.edge ~src:p ~dst:v output.(p))
        done;
        let contribution = !contribution in
        let next =
          if updates.(v) >= widen_after && not (D.equal contribution input.(v)) then begin
            incr widenings;
            D.widen ~old:input.(v) ~next:contribution
          end
          else D.join input.(v) contribution
        in
        if not (D.equal next input.(v)) then begin
          updates.(v) <- updates.(v) + 1;
          input.(v) <- next;
          output.(v) <- P.transfer v next;
          for k = sstart.(v) to sstart.(v + 1) - 1 do
            let s = succs.(k) in
            if not queued.(s) then begin
              queued.(s) <- true;
              let tail = !head + !length in
              ring.(if tail >= nodes then tail - nodes else tail) <- s;
              incr length
            end
          done
        end
      end
    done;
    {
      input;
      output;
      stats = { iterations = !iterations; widenings = !widenings; converged = !converged };
    }
end

let ring n = List.init n (fun i -> (i, (i + 1) mod n))
let ring_rev n = List.init n (fun i -> ((i + 1) mod n, i))
