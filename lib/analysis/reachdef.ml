let dist_cap = 2

(* Facts are dense. Every (register, defining op) pair of the body owns
   one slot, and a register's slots are contiguous, in body order. A
   fact holds one byte per slot: the minimum distance at which that
   definition reaches, or [absent]. This is the lattice of a map from
   register to (def op id -> min distance): join is slotwise min, the
   back edge ages every present distance up to the cap, and a def of [r]
   clears all of [r]'s slots but its own. So the solver visits the nodes
   exactly as over the map domain, and returns the same stats. *)
let absent = dist_cap + 1

type t = {
  regs : Ir.Vreg.Dense.t;
  first : int array;
  def_id : int array;
  def_pos : int array;
  before : Bytes.t array;
  stats : Solver.stats;
}

let of_loop loop =
  let arr = Array.of_list (Ir.Loop.ops loop) in
  let n = Array.length arr in
  (* Number the defined registers and give each one a slot per defining
     op, in body order. *)
  let regs =
    Ir.Vreg.Dense.of_iter (fun f -> Array.iter (fun op -> List.iter f (Ir.Op.defs op)) arr)
  in
  let nregs = Ir.Vreg.Dense.size regs in
  let first = Array.make (nregs + 1) 0 in
  Array.iter
    (fun op ->
      List.iter
        (fun d ->
          let k = Ir.Vreg.Dense.find regs d in
          first.(k + 1) <- first.(k + 1) + 1)
        (Ir.Op.defs op))
    arr;
  for k = 0 to nregs - 1 do
    first.(k + 1) <- first.(k + 1) + first.(k)
  done;
  let slots = first.(nregs) in
  let def_id = Array.make slots 0 and def_pos = Array.make slots 0 in
  let fill = Array.sub first 0 nregs in
  (* [gen.(i)]: the slot op [i]'s definition sets (-1 when it defines
     nothing); [reg_of.(i)] the register it defines. *)
  let gen = Array.make n (-1) and reg_of = Array.make n 0 in
  Array.iteri
    (fun i op ->
      List.iter
        (fun d ->
          let k = Ir.Vreg.Dense.find regs d in
          let s = fill.(k) in
          def_id.(s) <- Ir.Op.id op;
          def_pos.(s) <- i;
          gen.(i) <- s;
          reg_of.(i) <- k;
          fill.(k) <- s + 1)
        (Ir.Op.defs op))
    arr;
  let none = Char.chr absent in
  let module P = struct
    module D = struct
      type t = Bytes.t

      let bottom = Bytes.make slots none
      let equal = Bytes.equal

      (* Facts are never mutated, so a join that adds nothing to one
         side returns that side rather than a copy. *)
      let join a b =
        if a == bottom then b
        else if b == bottom then a
        else begin
          let a_below = ref true and b_below = ref true in
          for s = 0 to slots - 1 do
            let x = Bytes.unsafe_get a s and y = Bytes.unsafe_get b s in
            if x > y then a_below := false else if x < y then b_below := false
          done;
          if !a_below then a
          else if !b_below then b
          else begin
            let c = Bytes.create slots in
            for s = 0 to slots - 1 do
              let x = Bytes.unsafe_get a s and y = Bytes.unsafe_get b s in
              Bytes.unsafe_set c s (if x <= y then x else y)
            done;
            c
          end
        end

      let widen ~old ~next = join old next (* finite height: slots x capped dists *)

      let pp fmt f =
        for s = 0 to slots - 1 do
          let d = Char.code (Bytes.get f s) in
          if d <> absent then Format.fprintf fmt "op%d@%d " def_id.(s) d
        done
    end

    (* A def of register [k] clears its slots, then sets its own. *)
    let transfer i fact =
      let s = gen.(i) in
      if s < 0 then fact
      else begin
        let k = reg_of.(i) in
        let f = Bytes.copy fact in
        Bytes.fill f first.(k) (first.(k + 1) - first.(k)) none;
        Bytes.set f s '\000';
        f
      end

    (* The back edge ages every reaching definition by one iteration. *)
    let edge ~src ~dst fact =
      if src = n - 1 && dst = 0 then begin
        let f = Bytes.create slots in
        for s = 0 to slots - 1 do
          let d = Char.code (Bytes.unsafe_get fact s) in
          Bytes.unsafe_set f s (Char.unsafe_chr (if d >= dist_cap then d else d + 1))
        done;
        f
      end
      else fact
  end in
  let module S = Solver.Make (P) in
  let r = S.solve ~nodes:n ~edges:(Solver.ring n) ~init:(fun _ -> P.D.bottom) () in
  { regs; first; def_id; def_pos; before = r.S.input; stats = r.S.stats }

let distance t ~pos s = Char.code (Bytes.unsafe_get t.before.(pos) s)

let reaching t ~pos r =
  let k = Ir.Vreg.Dense.find t.regs r in
  if k < 0 then []
  else begin
    let acc = ref [] in
    for s = t.first.(k + 1) - 1 downto t.first.(k) do
      let d = distance t ~pos s in
      if d <> absent then acc := (t.def_id.(s), d) :: !acc
    done;
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
  end

let stats t = t.stats
