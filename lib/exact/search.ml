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

let kth_smallest k l = List.nth (List.sort compare l) (k - 1)

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
     [pairs] maps each forced cross-bank (register, consuming cluster) pair to
     the depth that created it — the culprit for backjumping. *)
  let bank = Array.make (max n 1) (-1) in
  let op_cluster = Array.make (max n_ops 1) (-1) in
  Array.iteri
    (fun oi (o : Space.op_info) ->
      if o.Space.pin = None && not o.Space.copy then op_cluster.(oi) <- 0)
    sp.Space.ops;
  let pinned = Array.make c 0 in
  pinned.(0) <- sp.Space.fixed_zero;
  let pairs : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let pairs_into = Array.make c 0 in
  let total_pairs = ref 0 in
  let assign d b =
    bank.(d) <- b;
    let added = ref [] and pinned_ops = ref [] in
    let add_pair r cl =
      if not (Hashtbl.mem pairs (r, cl)) then begin
        Hashtbl.add pairs (r, cl) d;
        pairs_into.(cl) <- pairs_into.(cl) + 1;
        incr total_pairs;
        added := (r, cl) :: !added
      end
    in
    List.iter
      (fun oi ->
        let o = sp.Space.ops.(oi) in
        op_cluster.(oi) <- b;
        pinned.(b) <- pinned.(b) + 1;
        pinned_ops := oi :: !pinned_ops;
        Array.iter
          (fun u -> if bank.(u) >= 0 && bank.(u) <> b then add_pair u b)
          o.Space.uses)
      sp.Space.pinned_by.(d);
    List.iter
      (fun oi ->
        let cl = op_cluster.(oi) in
        if cl >= 0 && cl <> b then add_pair d cl)
      sp.Space.used_by.(d);
    let undo_pairs = !added and undo_ops = !pinned_ops in
    fun () ->
      List.iter
        (fun key ->
          Hashtbl.remove pairs key;
          pairs_into.(snd key) <- pairs_into.(snd key) - 1;
          decr total_pairs)
        undo_pairs;
      List.iter
        (fun oi ->
          op_cluster.(oi) <- -1;
          pinned.(b) <- pinned.(b) - 1)
        undo_ops;
      bank.(d) <- -1
  in
  (* ---- Prune certificates -------------------------------------------- *)
  (* Each contribution to a counted resource carries the depth of the
     deepest branching decision it rests on: a pinned op contributes at its
     pin register's depth (-1 for register-free ops), a forced pair at the
     depth that created it. A ceiling bound [ceil (count / cap)] reaches
     value [v] as soon as [count >= (v-1)*cap + 1]; the cheapest witness is
     the k smallest contribution depths, and its culprit the k-th smallest.
     [cap = 0] encodes a resource that saturates at one contribution
     (copy_ports = 0 / busses = 0 map any traffic to an effectively
     unbounded II). *)
  let pin_contribs cl =
    let acc = ref [] in
    Array.iteri
      (fun oi (o : Space.op_info) ->
        if op_cluster.(oi) = cl then
          acc := (match o.Space.pin with Some r -> r | None -> -1) :: !acc)
      sp.Space.ops;
    !acc
  in
  let pair_contribs cl =
    Hashtbl.fold (fun (_, pc) cu acc -> if pc = cl then cu :: acc else acc) pairs []
  in
  let all_pair_contribs () = Hashtbl.fold (fun _ cu acc -> cu :: acc) pairs [] in
  let cert ~cap ~v contribs =
    if v <= 1 then Some (-1)
    else
      let k = if cap = 0 then 1 else ((v - 1) * cap) + 1 in
      if List.length contribs < k then None else Some (kth_smallest k contribs)
  in
  (* Deepest decision a proof of [partial MII lower bound >= v] needs; [None]
     when the current state does not prove it (caller falls back to no
     jump). *)
  let mii_cert v =
    if static_lower >= v then Some (-1)
    else begin
      let best = ref None in
      let push = function
        | Some cu -> (
            match !best with
            | Some b when b <= cu -> ()
            | _ -> best := Some cu)
        | None -> ()
      in
      (match m.Mach.Machine.copy_model with
      | Mach.Machine.Embedded ->
          for cl = 0 to c - 1 do
            push
              (cert ~cap:m.Mach.Machine.fus_per_cluster ~v
                 (pin_contribs cl @ pair_contribs cl))
          done
      | Mach.Machine.Copy_unit ->
          for cl = 0 to c - 1 do
            push (cert ~cap:m.Mach.Machine.fus_per_cluster ~v (pin_contribs cl));
            push (cert ~cap:m.Mach.Machine.copy_ports ~v (pair_contribs cl))
          done;
          push (cert ~cap:m.Mach.Machine.busses ~v (all_pair_contribs ())));
      !best
    end
  in
  let copies_cert k =
    if k <= 0 then Some (-1)
    else
      let contribs = all_pair_contribs () in
      if List.length contribs < k then None else Some (kth_smallest k contribs)
  in
  let prune_culprit ~d ~lbm =
    if !inc_mii = max_int then d
    else if lbm > !inc_mii then
      match mii_cert (!inc_mii + 1) with Some cu -> cu | None -> d
    else
      (* lbm = inc_mii and lbc >= inc_copies: need both halves. *)
      match (mii_cert !inc_mii, copies_cert !inc_copies) with
      | Some a, Some b -> max a b
      | _ -> d
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
      let limit = min (maxused + 1) (c - 1) in
      let result = ref (d - 1) in
      (try
         for b = 0 to limit do
           if !nodes >= budget then raise (Aborted false);
           if !nodes land 255 = 0 && cancel () then raise (Aborted true);
           incr nodes;
           let undo = assign d b in
           let lbm =
             max static_lower
               (Ddg.Minii.res_mii_clustered ~machine:m ~ops_per_cluster:pinned
                  ~copies_per_cluster:pairs_into)
           in
           let lbc = !total_pairs in
           if Bounds.compare_score (lbm, lbc) (!inc_mii, !inc_copies) >= 0 then begin
             incr pruned;
             let cu = prune_culprit ~d ~lbm in
             undo ();
             if cu < d then begin
               incr backjumps;
               result := cu;
               raise Exit
             end
           end
           else begin
             let t = descend (d + 1) (max maxused b) in
             undo ();
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
