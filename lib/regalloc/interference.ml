module Bits = Util.Bitrow

(* A graph's nodes are one bank's registers, numbered [0 .. size-1] in
   [Ir.Vreg.compare] order. Adjacency rows are over the liveness
   numbers of the whole code, so a def's edges are its bank's mask
   of the live row after it; [node] maps a liveness number back. *)
type t = {
  regs : Ir.Vreg.t array;  (* node -> register *)
  num : int array;  (* node -> liveness number *)
  numbering : Ir.Vreg.Dense.t;
  node : int array;  (* liveness number -> node in its own bank *)
  bank : int array;  (* liveness number -> bank, or -1 *)
  self : int;  (* this graph's bank *)
  words : int;
  adj : int array;  (* node v's neighbours: words [v * words, (v + 1) * words) *)
  degree : int array;
  occ : int array;
  pressure : int;
}

let build_banks ~banks ~bank_of (live : Liveness.dense) =
  let size = Ir.Vreg.Dense.size live.regs in
  let bank =
    Array.init size (fun g ->
        let b = bank_of (Ir.Vreg.Dense.reg live.regs g) in
        if b >= 0 && b < banks then b else -1)
  in
  let count = Array.make banks 0 and node = Array.make size (-1) in
  Array.iteri
    (fun g b ->
      if b >= 0 then begin
        node.(g) <- count.(b);
        count.(b) <- count.(b) + 1
      end)
    bank;
  let words = Bits.words size in
  let masks = Array.init banks (fun _ -> Bits.create size) in
  Array.iteri (fun g b -> if b >= 0 then Bits.add masks.(b) g) bank;
  let adj = Array.init banks (fun b -> Array.make (count.(b) * words) 0) in
  let occ = Array.init banks (fun b -> Array.make count.(b) 0) in
  (* Bit [x] of the row starting at word [base] of [a]. *)
  let set a base x =
    let w = base + (x / Bits.bits) in
    a.(w) <- a.(w) lor (1 lsl (x mod Bits.bits))
  and clear a base x =
    let w = base + (x / Bits.bits) in
    a.(w) <- a.(w) land lnot (1 lsl (x mod Bits.bits))
  in
  let link b g h =
    set adj.(b) (node.(g) * words) h;
    set adj.(b) (node.(h) * words) g
  in
  let n = Array.length live.ops in
  (* Region entry is the definition point of every live-in register
     (loop invariants, values carried across the back edge): their
     values already coexist there, so they pairwise interfere even
     though no op in the region defines them. *)
  if n > 0 then
    for b = 0 to banks - 1 do
      let a = adj.(b) and entry = Array.mapi (fun w x -> x land masks.(b).(w)) live.before.(0) in
      Bits.iter
        (fun g ->
          let base = node.(g) * words in
          Array.iteri (fun w x -> a.(base + w) <- a.(base + w) lor x) entry;
          clear a base g)
        entry
    done;
  let pressure = Array.make banks 0 in
  let bump g =
    let b = bank.(g) in
    if b >= 0 then occ.(b).(node.(g)) <- occ.(b).(node.(g)) + 1
  in
  for i = 0 to n - 1 do
    Array.iter bump live.defs.(i);
    Array.iter bump live.uses.(i);
    let here = live.before.(i) in
    for b = 0 to banks - 1 do
      let mask = masks.(b) and c = ref 0 in
      for w = 0 to words - 1 do
        c := !c + Bits.popcount (here.(w) land mask.(w))
      done;
      if !c > pressure.(b) then pressure.(b) <- !c
    done;
    (* Each definition interferes with every register of its bank live
       after the op, except itself and a copy's source. *)
    let after = live.before.(i + 1) in
    let exempt =
      if Ir.Op.is_copy live.ops.(i) then
        match Ir.Op.srcs live.ops.(i) with
        | s :: _ -> Ir.Vreg.Dense.find live.regs s
        | [] -> -1
      else -1
    in
    Array.iter
      (fun d ->
        let b = bank.(d) in
        if b >= 0 then
          for w = 0 to words - 1 do
            Bits.iter_word
              (fun h -> if h <> d && h <> exempt then link b d h)
              (w * Bits.bits)
              (after.(w) land masks.(b).(w))
          done)
      live.defs.(i)
  done;
  Array.init banks (fun b ->
      let num = Array.make count.(b) 0 in
      Array.iteri (fun g b' -> if b' = b then num.(node.(g)) <- g) bank;
      let a = adj.(b) in
      let degree =
        Array.init count.(b) (fun v ->
            let c = ref 0 in
            for w = 0 to words - 1 do
              c := !c + Bits.popcount a.((v * words) + w)
            done;
            !c)
      in
      {
        regs = Array.map (Ir.Vreg.Dense.reg live.regs) num; num; numbering = live.regs; node;
        bank; self = b; words; adj = a; degree; occ = occ.(b); pressure = pressure.(b);
      })

let build_filtered ~keep ops ~live_out =
  (build_banks ~banks:1
     ~bank_of:(fun r -> if keep r then 0 else -1)
     (Liveness.dense ops ~live_out)).(0)

let build ops ~live_out = build_filtered ~keep:(fun _ -> true) ops ~live_out

let size t = Array.length t.regs
let reg t v = t.regs.(v)

let node t r =
  let g = Ir.Vreg.Dense.find t.numbering r in
  if g >= 0 && t.bank.(g) = t.self then t.node.(g) else -1

let iter_neighbors t v f =
  let base = v * t.words in
  for w = 0 to t.words - 1 do
    let x = t.adj.(base + w) in
    if x <> 0 then Bits.iter_word (fun g -> f t.node.(g)) (w * Bits.bits) x
  done

let node_degree t v = t.degree.(v)
let node_occurrences t v = t.occ.(v)
let edge_count t = Array.fold_left ( + ) 0 t.degree / 2

let registers t = Array.to_list t.regs

let interferes t a b =
  let v = node t a and u = node t b in
  v >= 0 && u >= 0
  && (t.adj.((v * t.words) + (t.num.(u) / Bits.bits)) lsr (t.num.(u) mod Bits.bits)) land 1 <> 0

let neighbors t r =
  match node t r with
  | -1 -> []
  | v ->
      let acc = ref [] in
      iter_neighbors t v (fun u -> acc := t.regs.(u) :: !acc);
      List.rev !acc

let degree t r = match node t r with -1 -> 0 | v -> t.degree.(v)
let occurrences t r = match node t r with -1 -> 0 | v -> t.occ.(v)
let max_clique_lower_bound t = t.pressure

let pp ppf t =
  Format.fprintf ppf "@[<v>interference (%d nodes):@," (size t);
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s:" (Ir.Vreg.to_string r);
      List.iter (fun m -> Format.fprintf ppf " %s" (Ir.Vreg.to_string m)) (neighbors t r);
      Format.fprintf ppf "@,")
    (registers t);
  Format.fprintf ppf "@]"
