type dense = {
  regs : Ir.Vreg.Dense.t;
  ops : Ir.Op.t array;
  defs : int array array;
  uses : int array array;
  before : Util.Bitrow.t array;
}

let dense ops ~live_out =
  let ops = Array.of_list ops in
  let regs =
    Ir.Vreg.Dense.of_iter (fun f ->
        Ir.Vreg.Set.iter f live_out;
        Array.iter
          (fun op ->
            List.iter f (Ir.Op.defs op);
            List.iter f (Ir.Op.uses op))
          ops)
  in
  let number l = Array.of_list (List.map (Ir.Vreg.Dense.find regs) l) in
  let defs = Array.map (fun op -> number (Ir.Op.defs op)) ops in
  let uses = Array.map (fun op -> number (Ir.Op.uses op)) ops in
  let n = Array.length ops in
  let before = Array.make (n + 1) [||] in
  let out = Util.Bitrow.create (Ir.Vreg.Dense.size regs) in
  Ir.Vreg.Set.iter (fun r -> Util.Bitrow.add out (Ir.Vreg.Dense.find regs r)) live_out;
  before.(n) <- out;
  for i = n - 1 downto 0 do
    let row = Array.copy before.(i + 1) in
    Array.iter (Util.Bitrow.remove row) defs.(i);
    Array.iter (Util.Bitrow.add row) uses.(i);
    before.(i) <- row
  done;
  { regs; ops; defs; uses; before }

let set_of d row =
  let s = ref Ir.Vreg.Set.empty in
  Util.Bitrow.iter (fun k -> s := Ir.Vreg.Set.add (Ir.Vreg.Dense.reg d.regs k) !s) row;
  !s

let backward ops ~live_out =
  let d = dense ops ~live_out in
  Array.init (Array.length d.ops) (fun i -> set_of d d.before.(i))

let live_in ops ~live_out =
  match backward ops ~live_out with
  | [||] -> live_out
  | arr -> arr.(0)

let loop_live_out loop =
  let ops = Ir.Loop.ops loop in
  (* Carried and invariant registers: used at q with no def strictly
     before q (invariants have no def at all). *)
  let regs =
    Ir.Vreg.Dense.of_iter (fun f ->
        List.iter
          (fun op ->
            List.iter f (Ir.Op.defs op);
            List.iter f (Ir.Op.uses op))
          ops)
  in
  let defined_before = Array.make (Ir.Vreg.Dense.size regs) false in
  let live = ref (Ir.Loop.live_out loop) in
  List.iter
    (fun op ->
      List.iter
        (fun u ->
          if not defined_before.(Ir.Vreg.Dense.find regs u) then live := Ir.Vreg.Set.add u !live)
        (Ir.Op.uses op);
      List.iter (fun d -> defined_before.(Ir.Vreg.Dense.find regs d) <- true) (Ir.Op.defs op))
    ops;
  !live

let func_live_out func =
  let table : (string, Ir.Vreg.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let blocks = Ir.Func.blocks func in
  List.iter (fun b -> Hashtbl.replace table (Ir.Block.label b) Ir.Vreg.Set.empty) blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let label = Ir.Block.label b in
        let out =
          List.fold_left
            (fun acc succ ->
              let succ_block = Ir.Func.block func succ in
              let succ_out = Hashtbl.find table succ in
              Ir.Vreg.Set.union acc (live_in (Ir.Block.ops succ_block) ~live_out:succ_out))
            Ir.Vreg.Set.empty (Ir.Func.successors func label)
        in
        if not (Ir.Vreg.Set.equal out (Hashtbl.find table label)) then begin
          Hashtbl.replace table label out;
          changed := true
        end)
      blocks
  done;
  fun label ->
    match Hashtbl.find_opt table label with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Liveness.func_live_out: unknown block %s" label)
