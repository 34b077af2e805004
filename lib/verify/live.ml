module Bits = Util.Bitrow

type t = { regs : Ir.Vreg.Dense.t; rows : Bits.t array }

let backward ops ~live_out =
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
  let num = Ir.Vreg.Dense.find regs in
  let rows = Array.make (n + 1) [||] in
  let out = Bits.create (Ir.Vreg.Dense.size regs) in
  Ir.Vreg.Set.iter (fun r -> Bits.add out (num r)) live_out;
  rows.(n) <- out;
  (* live before = (live after - defs) + uses *)
  for i = n - 1 downto 0 do
    let op = arr.(i) in
    let row = Array.copy rows.(i + 1) in
    List.iter (fun d -> Bits.remove row (num d)) (Ir.Op.defs op);
    List.iter (fun u -> Bits.add row (num u)) (Ir.Op.uses op);
    rows.(i) <- row
  done;
  { regs; rows }

let set t i =
  let s = ref Ir.Vreg.Set.empty in
  Bits.iter (fun k -> s := Ir.Vreg.Set.add (Ir.Vreg.Dense.reg t.regs k) !s) t.rows.(i);
  !s

let loop_live_out loop =
  let ops = Ir.Loop.ops loop in
  (* First definition position of each register, if any. *)
  let first_def = Hashtbl.create 32 in
  List.iteri
    (fun i op ->
      List.iter
        (fun d ->
          if not (Hashtbl.mem first_def (Ir.Vreg.id d)) then
            Hashtbl.add first_def (Ir.Vreg.id d) i)
        (Ir.Op.defs op))
    ops;
  (* Carried or invariant: some use at position q precedes every def. *)
  let carried = ref Ir.Vreg.Set.empty in
  List.iteri
    (fun q op ->
      List.iter
        (fun u ->
          match Hashtbl.find_opt first_def (Ir.Vreg.id u) with
          | None -> carried := Ir.Vreg.Set.add u !carried (* invariant *)
          | Some d when q <= d -> carried := Ir.Vreg.Set.add u !carried
          | Some _ -> ())
        (Ir.Op.uses op))
    ops;
  Ir.Vreg.Set.union (Ir.Loop.live_out loop) !carried
