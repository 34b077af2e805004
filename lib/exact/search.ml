type stats = { nodes : int; leaves : int; pruned : int; backjumps : int }

type outcome = {
  best : int array;
  best_mii : int;
  best_copies : int;
  complete : bool;
  cancelled : bool;
  stats : stats;
}

(* Payload: [true] when the abort came from the cancel token. *)
exception Aborted of bool

let run ?(budget = 300_000) ?(cancel = fun () -> false) ~machine ~space
    ~static_lower ~seeds () =
  let m : Mach.Machine.t = machine in
  let sp : Space.t = space in
  let c = m.Mach.Machine.clusters in
  let n = sp.Space.n in
  let n_ops = Array.length sp.Space.ops in
  let nodes = ref 0 and leaves = ref 0 in
  let pruned = ref 0 and backjumps = ref 0 in
  let inc = ref [||] and inc_mii = ref max_int and inc_copies = ref max_int in
  let record banks mii copies =
    if Bounds.compare_score (mii, copies) (!inc_mii, !inc_copies) < 0 then begin
      inc := Array.copy banks;
      inc_mii := mii;
      inc_copies := copies
    end
  in
  let eval_seed banks =
    incr leaves;
    let l = Bounds.leaf_exact ~machine:m ~loop:sp.Space.loop (Space.to_assignment sp banks) in
    record banks l.Bounds.mii l.Bounds.copies
  in
  List.iter eval_seed seeds;
  (* Incremental state. [bank.(r)] is the bank of register [r] or -1.
     [op_cluster.(oi)] is the decided cluster of op [oi] or -1; register-free
     non-copy ops are fixed on cluster 0 up front, copy ops stay undecided
     forever (they are recreated by copy insertion, not branched on).
     [forced.(r * c + cl)] marks the cross-bank (register [r], consuming
     cluster [cl]) pair as forced; [trail] stacks the forced slots in
     creation order, so undoing a decision pops the pairs it forced. *)
  let bank = Array.make (max n 1) (-1) in
  let op_cluster = Array.make (max n_ops 1) (-1) in
  Array.iteri
    (fun oi (o : Space.op_info) ->
      if o.Space.pin = None && not o.Space.copy then op_cluster.(oi) <- 0)
    sp.Space.ops;
  let pinned = Array.make c 0 in
  pinned.(0) <- sp.Space.fixed_zero;
  let forced = Array.make (max (n * c) 1) false in
  let trail = Array.make (max (n * c) 1) 0 in
  let trail_top = ref 0 in
  let pairs_into = Array.make c 0 in
  let total_pairs = ref 0 in
  (* Count rows for the prune certificates. Each contribution to a counted
     resource carries the depth of the deepest branching decision it rests
     on: a pinned op contributes at its pin register's depth (-1 for
     register-free ops), a forced pair at the depth that created it. Row
     [cl] of [pin_rows] counts cluster [cl]'s pinned ops by contribution
     depth, at index depth + 1 ([stride = n + 1] buckets per row);
     [pair_rows] does the same for the pairs into [cl], and [all_pairs]
     for every pair. *)
  let stride = n + 1 in
  let pin_rows = Array.make (c * stride) 0 in
  let pair_rows = Array.make (c * stride) 0 in
  let all_pairs = Array.make stride 0 in
  pin_rows.(0) <- sp.Space.fixed_zero;
  let add_pair d r cl =
    let slot = (r * c) + cl in
    if not forced.(slot) then begin
      forced.(slot) <- true;
      trail.(!trail_top) <- slot;
      incr trail_top;
      pairs_into.(cl) <- pairs_into.(cl) + 1;
      incr total_pairs;
      pair_rows.((cl * stride) + d + 1) <- pair_rows.((cl * stride) + d + 1) + 1;
      all_pairs.(d + 1) <- all_pairs.(d + 1) + 1
    end
  in
  (* Place register [d] in bank [b]: it pins every op it decides and forces
     a pair for every placed operand in another bank. [unassign d b mark]
     restores the state, [mark] being [!trail_top] before the call. The
     list walks are recursive functions over [d] and [b] rather than
     [List.iter] closures, so neither direction allocates. *)
  let rec pin d b = function
    | [] -> ()
    | oi :: rest ->
        op_cluster.(oi) <- b;
        pinned.(b) <- pinned.(b) + 1;
        pin_rows.((b * stride) + d + 1) <- pin_rows.((b * stride) + d + 1) + 1;
        let uses = sp.Space.ops.(oi).Space.uses in
        for i = 0 to Array.length uses - 1 do
          let u = uses.(i) in
          if bank.(u) >= 0 && bank.(u) <> b then add_pair d u b
        done;
        pin d b rest
  in
  let rec force_readers d b = function
    | [] -> ()
    | oi :: rest ->
        let cl = op_cluster.(oi) in
        if cl >= 0 && cl <> b then add_pair d d cl;
        force_readers d b rest
  in
  let rec unpin d b = function
    | [] -> ()
    | oi :: rest ->
        op_cluster.(oi) <- -1;
        pinned.(b) <- pinned.(b) - 1;
        pin_rows.((b * stride) + d + 1) <- pin_rows.((b * stride) + d + 1) - 1;
        unpin d b rest
  in
  let assign d b =
    bank.(d) <- b;
    pin d b sp.Space.pinned_by.(d);
    force_readers d b sp.Space.used_by.(d)
  in
  let unassign d b mark =
    while !trail_top > mark do
      decr trail_top;
      let slot = trail.(!trail_top) in
      let cl = slot mod c in
      forced.(slot) <- false;
      pairs_into.(cl) <- pairs_into.(cl) - 1;
      decr total_pairs;
      pair_rows.((cl * stride) + d + 1) <- pair_rows.((cl * stride) + d + 1) - 1;
      all_pairs.(d + 1) <- all_pairs.(d + 1) - 1
    done;
    unpin d b sp.Space.pinned_by.(d);
    bank.(d) <- -1
  in
  (* ---- Prune certificates -------------------------------------------- *)
  (* A ceiling bound [ceil (count / cap)] reaches value [v] as soon as
     [count >= (v-1)*cap + 1]; the cheapest witness is the k smallest
     contribution depths, and its culprit the k-th smallest, found by a
     prefix scan over the rows (one or two rows summed bucket by bucket;
     [total] is their combined count). [cap = 0] encodes a resource that
     saturates at one contribution (copy_ports = 0 / busses = 0 map any
     traffic to an effectively unbounded II). [no_cert] (-2, below every
     depth) means the current state does not prove the bound. *)
  let no_cert = -2 in
  let kth ~k ~total rows off rows2 off2 =
    if total < k then no_cert
    else begin
      let i = ref 0 and acc = ref (rows.(off) + rows2.(off2)) in
      while !acc < k do
        incr i;
        acc := !acc + rows.(off + !i) + rows2.(off2 + !i)
      done;
      !i - 1
    end
  in
  let cert ~cap ~v ~total rows off rows2 off2 =
    if v <= 1 then -1
    else kth ~k:(if cap = 0 then 1 else ((v - 1) * cap) + 1) ~total rows off rows2 off2
  in
  (* A row of zeros, for certificates over a single row. *)
  let zeros = Array.make stride 0 in
  let culprit = ref no_cert in
  let push cu = if cu <> no_cert && (!culprit = no_cert || cu < !culprit) then culprit := cu in
  (* Deepest decision a proof of [partial MII lower bound >= v] needs;
     [no_cert] when the current state does not prove it (caller falls
     back to no jump). *)
  let mii_cert v =
    if static_lower >= v then -1
    else begin
      culprit := no_cert;
      let fus = m.Mach.Machine.fus_per_cluster in
      (match m.Mach.Machine.copy_model with
      | Mach.Machine.Embedded ->
          for cl = 0 to c - 1 do
            push
              (cert ~cap:fus ~v ~total:(pinned.(cl) + pairs_into.(cl)) pin_rows (cl * stride)
                 pair_rows (cl * stride))
          done
      | Mach.Machine.Copy_unit ->
          for cl = 0 to c - 1 do
            push (cert ~cap:fus ~v ~total:pinned.(cl) pin_rows (cl * stride) zeros 0);
            push
              (cert ~cap:m.Mach.Machine.copy_ports ~v ~total:pairs_into.(cl) pair_rows
                 (cl * stride) zeros 0)
          done;
          push (cert ~cap:m.Mach.Machine.busses ~v ~total:!total_pairs all_pairs 0 zeros 0));
      !culprit
    end
  in
  let copies_cert k =
    if k <= 0 then -1 else kth ~k ~total:!total_pairs all_pairs 0 zeros 0
  in
  let prune_culprit ~d ~lbm =
    if !inc_mii = max_int then d
    else if lbm > !inc_mii then
      let cu = mii_cert (!inc_mii + 1) in
      if cu = no_cert then d else cu
    else
      (* lbm = inc_mii and lbc >= inc_copies: need both halves. *)
      let a = mii_cert !inc_mii and b = copies_cert !inc_copies in
      if a = no_cert || b = no_cert then d else Int.max a b
  in
  (* ---- Leaf ----------------------------------------------------------- *)
  let leaf () =
    let a = Space.to_assignment sp bank in
    let ins = Partition.Copies.insert_loop ~machine:m ~assignment:a sp.Space.loop in
    let copies = ins.Partition.Copies.n_copies in
    let res =
      Ddg.Minii.res_mii_clustered ~machine:m
        ~ops_per_cluster:ins.Partition.Copies.ops_per_cluster
        ~copies_per_cluster:ins.Partition.Copies.copies_per_cluster
    in
    let floor_mii = max res static_lower in
    if Bounds.compare_score (floor_mii, copies) (!inc_mii, !inc_copies) >= 0 then
      (* Resources alone already lose; skip the recurrence analysis. *)
      incr pruned
    else begin
      incr leaves;
      record bank (Bounds.copies_mii ~machine:m ins) copies
    end
  in
  (* ---- Search --------------------------------------------------------- *)
  (* [descend d maxused] explores register [d]; the return value is the
     depth to continue at — [d - 1] normally, less after a backjump. *)
  let rec descend d maxused =
    if d = n then begin
      leaf ();
      d - 1
    end
    else begin
      let limit = Int.min (maxused + 1) (c - 1) in
      let result = ref (d - 1) in
      (try
         for b = 0 to limit do
           if !nodes >= budget then raise (Aborted false);
           if !nodes land 255 = 0 && cancel () then raise (Aborted true);
           incr nodes;
           let mark = !trail_top in
           assign d b;
           let lbm =
             Int.max static_lower
               (Ddg.Minii.res_mii_clustered ~machine:m ~ops_per_cluster:pinned
                  ~copies_per_cluster:pairs_into)
           in
           (* [(lbm, total_pairs) >= (inc_mii, inc_copies)], lexicographically. *)
           if lbm > !inc_mii || (lbm = !inc_mii && !total_pairs >= !inc_copies) then begin
             incr pruned;
             let cu = prune_culprit ~d ~lbm in
             unassign d b mark;
             if cu < d then begin
               incr backjumps;
               result := cu;
               raise Exit
             end
           end
           else begin
             let t = descend (d + 1) (Int.max maxused b) in
             unassign d b mark;
             if t < d then begin
               result := t;
               raise Exit
             end
           end
         done
       with Exit -> ());
      !result
    end
  in
  let complete, cancelled =
    if n = 0 then (true, false)
    else
      match descend 0 (-1) with
      | _ -> (true, false)
      | exception Aborted by_cancel -> (false, by_cancel)
  in
  {
    best = !inc;
    best_mii = !inc_mii;
    best_copies = !inc_copies;
    complete;
    cancelled;
    stats =
      { nodes = !nodes; leaves = !leaves; pruned = !pruned; backjumps = !backjumps };
  }
