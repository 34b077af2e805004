module Bits = Util.Bitrow

type t = {
  regs : Ir.Vreg.Dense.t;
  before : Bits.t array;
  after : Bits.t array;
  stats : Solver.stats;
}

(* Backward liveness as a forward problem on the reversed ring: solver
   node i's input is the live set *after* op i, its output the live set
   *before* op i. Facts are bit rows over the body's registers (those of
   the ops and of [live_out]) numbered in [Ir.Vreg.compare] order: the
   powerset lattice, so the solver visits the nodes exactly as over
   register sets and returns the same stats. *)
let of_ops ops ~live_out =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let regs =
    Ir.Vreg.Dense.of_iter (fun f ->
        Ir.Vreg.Set.iter f live_out;
        Array.iter
          (fun op ->
            List.iter f (Ir.Op.defs op);
            List.iter f (Ir.Op.uses op))
          arr)
  in
  let size = Ir.Vreg.Dense.size regs in
  let row_of l =
    let row = Bits.create size in
    List.iter (fun r -> Bits.add row (Ir.Vreg.Dense.find regs r)) l;
    row
  in
  let defs = Array.map (fun op -> row_of (Ir.Op.defs op)) arr in
  let uses = Array.map (fun op -> row_of (Ir.Op.uses op)) arr in
  let words = Bits.words size in
  let module P = struct
    module D = struct
      type t = Bits.t

      let bottom = Bits.create size
      let equal (a : t) b =
        let w = ref 0 in
        while !w < words && a.(!w) = b.(!w) do
          incr w
        done;
        !w = words

      (* Facts are never mutated, so a join that adds nothing to one
         side returns that side rather than a copy. *)
      let rec covers a b w = w = words || (b.(w) land lnot a.(w) = 0 && covers a b (w + 1))

      let join a b =
        if covers a b 0 then a
        else if covers b a 0 then b
        else begin
          let c = Array.make words 0 in
          for w = 0 to words - 1 do
            c.(w) <- a.(w) lor b.(w)
          done;
          c
        end

      let widen ~old ~next = join old next (* finite height *)

      let pp fmt row =
        let names = ref [] in
        Bits.iter (fun k -> names := Ir.Vreg.to_string (Ir.Vreg.Dense.reg regs k) :: !names) row;
        Format.fprintf fmt "{%s}" (String.concat ", " (List.rev !names))
    end

    (* (after - defs) + uses; [after] itself when the op changes nothing. *)
    let transfer i after =
      let d = defs.(i) and u = uses.(i) in
      let w = ref 0 in
      while !w < words && after.(!w) land d.(!w) = 0 && u.(!w) land lnot after.(!w) = 0 do
        incr w
      done;
      if !w = words then after
      else begin
        let row = Array.make words 0 in
        for w = 0 to words - 1 do
          row.(w) <- u.(w) lor (after.(w) land lnot d.(w))
        done;
        row
      end

    let edge ~src:_ ~dst:_ d = d
  end in
  let module S = Solver.Make (P) in
  let r =
    S.solve ~nodes:n ~edges:(Solver.ring_rev n)
      ~init:(fun i -> if i = n - 1 then row_of (Ir.Vreg.Set.elements live_out) else P.D.bottom)
      ()
  in
  { regs; before = r.S.output; after = r.S.input; stats = r.S.stats }

let of_loop loop = of_ops (Ir.Loop.ops loop) ~live_out:(Ir.Loop.live_out loop)

let set_of t row =
  let s = ref Ir.Vreg.Set.empty in
  Bits.iter (fun k -> s := Ir.Vreg.Set.add (Ir.Vreg.Dense.reg t.regs k) !s) row;
  !s

let live_before t i = set_of t t.before.(i)
let live_after t i = set_of t t.after.(i)

let max_live t =
  let m = ref 0 in
  Array.iter (fun s -> m := max !m (Bits.cardinal s)) t.before;
  Array.iter (fun s -> m := max !m (Bits.cardinal s)) t.after;
  !m

let per_bank_max_live t ~banks ~bank_of =
  let banks = max banks 0 in
  let bank = Array.init (Ir.Vreg.Dense.size t.regs) (fun k -> bank_of (Ir.Vreg.Dense.reg t.regs k)) in
  let peaks = Array.make banks 0 and here = Array.make banks 0 in
  let count row =
    Array.fill here 0 banks 0;
    Bits.iter
      (fun k ->
        let b = bank.(k) in
        if b >= 0 && b < banks then here.(b) <- here.(b) + 1)
      row;
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
          | Some d -> not (Bits.mem l.after.(i) (Ir.Vreg.Dense.find l.regs d))
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
  match go ?l:live (Ir.Loop.ops loop) [] with
  | [] -> []
  | dead ->
      (* Report in body order regardless of removal round. *)
      let order = Hashtbl.create 32 in
      List.iteri (fun i op -> Hashtbl.replace order (Ir.Op.id op) i) (Ir.Loop.ops loop);
      List.sort
        (fun a b ->
          compare (Hashtbl.find order (Ir.Op.id a)) (Hashtbl.find order (Ir.Op.id b)))
        dead
