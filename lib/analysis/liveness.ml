type t = {
  before : Ir.Vreg.Set.t array;
  after : Ir.Vreg.Set.t array;
  stats : Solver.stats;
}

let set_of l = List.fold_left (fun s r -> Ir.Vreg.Set.add r s) Ir.Vreg.Set.empty l

(* Backward liveness as a forward problem on the reversed ring: solver
   node i's input is the live set *after* op i, its output the live set
   *before* op i. *)
let of_ops ops ~live_out =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let module P = struct
    module D = Lattice.VregSet

    let transfer i after =
      let op = arr.(i) in
      Ir.Vreg.Set.union (set_of (Ir.Op.uses op))
        (Ir.Vreg.Set.diff after (set_of (Ir.Op.defs op)))

    let edge ~src:_ ~dst:_ d = d
  end in
  let module S = Solver.Make (P) in
  let r =
    S.solve ~nodes:n ~edges:(Solver.ring_rev n)
      ~init:(fun i -> if i = n - 1 then live_out else Ir.Vreg.Set.empty)
      ()
  in
  { before = r.S.output; after = r.S.input; stats = r.S.stats }

let of_loop loop = of_ops (Ir.Loop.ops loop) ~live_out:(Ir.Loop.live_out loop)

let max_live t =
  let m = ref 0 in
  Array.iter (fun s -> m := max !m (Ir.Vreg.Set.cardinal s)) t.before;
  Array.iter (fun s -> m := max !m (Ir.Vreg.Set.cardinal s)) t.after;
  !m

let per_bank_max_live t ~banks ~bank_of =
  let peaks = Array.make (max banks 0) 0 in
  let count s =
    let here = Array.make (max banks 0) 0 in
    Ir.Vreg.Set.iter
      (fun r ->
        let b = bank_of r in
        if b >= 0 && b < banks then here.(b) <- here.(b) + 1)
      s;
    Array.iteri (fun b c -> peaks.(b) <- max peaks.(b) c) here
  in
  Array.iter count t.before;
  Array.iter count t.after;
  peaks

let dead_ops ?live loop =
  let live_out = Ir.Loop.live_out loop in
  let removable op =
    match Ir.Op.dst op with
    | None -> false (* stores are observable; nops define nothing *)
    | Some _ -> true
  in
  (* Iterate liveness-based removal: a def not live after its op is
     dead; removing it can make its operands' defs dead in turn. *)
  let rec go ?l ops dead =
    let l = match l with Some l -> l | None -> of_ops ops ~live_out in
    let arr = Array.of_list ops in
    let newly =
      List.filteri
        (fun i _ ->
          let op = arr.(i) in
          removable op
          &&
          match Ir.Op.dst op with
          | Some d -> not (Ir.Vreg.Set.mem d l.after.(i))
          | None -> false)
        ops
    in
    if newly = [] then dead
    else
      let gone = set_ids newly in
      let remaining = List.filter (fun op -> not (Hashtbl.mem gone (Ir.Op.id op))) ops in
      go remaining (dead @ newly)
  and set_ids ops =
    let tbl = Hashtbl.create 8 in
    List.iter (fun op -> Hashtbl.replace tbl (Ir.Op.id op) ()) ops;
    tbl
  in
  let dead = go ?l:live (Ir.Loop.ops loop) [] in
  (* Report in body order regardless of removal round. *)
  let order = Hashtbl.create 32 in
  List.iteri (fun i op -> Hashtbl.replace order (Ir.Op.id op) i) (Ir.Loop.ops loop);
  List.sort
    (fun a b ->
      compare (Hashtbl.find order (Ir.Op.id a)) (Hashtbl.find order (Ir.Op.id b)))
    dead
