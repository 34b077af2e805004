let dist_cap = 2

(* Facts are dense. Every (register, defining op) pair of the body owns
   one slot, and a register's slots are contiguous, ordered by op id. A
   fact holds one byte per slot: the minimum distance at which that
   definition reaches, or [absent]. This is the lattice of a map from
   register to (def op id -> min distance): join is slotwise min, the
   back edge ages every present distance up to the cap, and a def of [r]
   clears all of [r]'s slots but its own. So the solver visits the nodes
   exactly as over the map domain, and returns the same stats. *)
let absent = dist_cap + 1

type t = {
  reg : int Ir.Vreg.Tbl.t;  (* register -> its number *)
  first : int array;  (* register number -> its first slot; one more entry ends the last *)
  def_id : int array;  (* slot -> defining op id *)
  before : Bytes.t array;  (* position -> the fact at its entry *)
  stats : Solver.stats;
}

let of_loop loop =
  let arr = Array.of_list (Ir.Loop.ops loop) in
  let n = Array.length arr in
  (* Number the defined registers in order of first definition and
     collect each one's defining op ids. *)
  let reg = Ir.Vreg.Tbl.create 16 in
  let ids = Array.make (Array.fold_left (fun a op -> a + List.length (Ir.Op.defs op)) 0 arr) [] in
  Array.iter
    (fun op ->
      List.iter
        (fun d ->
          let k =
            match Ir.Vreg.Tbl.find_opt reg d with
            | Some k -> k
            | None ->
                let k = Ir.Vreg.Tbl.length reg in
                Ir.Vreg.Tbl.replace reg d k;
                k
          in
          ids.(k) <- Ir.Op.id op :: ids.(k))
        (Ir.Op.defs op))
    arr;
  let regs = Ir.Vreg.Tbl.length reg in
  let first = Array.make (regs + 1) 0 in
  for k = 0 to regs - 1 do
    ids.(k) <- List.sort_uniq Int.compare ids.(k);
    first.(k + 1) <- first.(k) + List.length ids.(k)
  done;
  let slots = first.(regs) in
  let def_id = Array.make slots 0 in
  for k = 0 to regs - 1 do
    List.iteri (fun j id -> def_id.(first.(k) + j) <- id) ids.(k)
  done;
  (* What each op's definitions do to a fact: clear the register's slots
     [lo, hi), then set its own slot to distance 0. *)
  let gen =
    Array.map
      (fun op ->
        let id = Ir.Op.id op in
        List.map
          (fun d ->
            let k = Ir.Vreg.Tbl.find reg d in
            let s = ref first.(k) in
            while def_id.(!s) <> id do
              incr s
            done;
            (first.(k), first.(k + 1), !s))
          (Ir.Op.defs op))
      arr
  in
  let none = Char.chr absent in
  let module P = struct
    module D = struct
      type t = Bytes.t

      let bottom = Bytes.make slots none
      let equal = Bytes.equal

      let join a b =
        if a == bottom then b
        else if b == bottom then a
        else begin
          let c = Bytes.create slots in
          for s = 0 to slots - 1 do
            let x = Char.code (Bytes.unsafe_get a s) and y = Char.code (Bytes.unsafe_get b s) in
            Bytes.unsafe_set c s (Char.unsafe_chr (if x <= y then x else y))
          done;
          c
        end

      let widen ~old ~next = join old next (* finite height: slots x capped dists *)

      let pp fmt f =
        for s = 0 to slots - 1 do
          let d = Char.code (Bytes.get f s) in
          if d <> absent then Format.fprintf fmt "op%d@%d " def_id.(s) d
        done
    end

    let transfer i fact =
      match gen.(i) with
      | [] -> fact
      | g ->
          let f = Bytes.copy fact in
          List.iter
            (fun (lo, hi, s) ->
              Bytes.fill f lo (hi - lo) none;
              Bytes.set f s '\000')
            g;
          f

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
  { reg; first; def_id; before = r.S.input; stats = r.S.stats }

let reaching t ~pos r =
  match Ir.Vreg.Tbl.find_opt t.reg r with
  | None -> []
  | Some k ->
      let fact = t.before.(pos) in
      let acc = ref [] in
      for s = t.first.(k + 1) - 1 downto t.first.(k) do
        let d = Char.code (Bytes.get fact s) in
        if d <> absent then acc := (t.def_id.(s), d) :: !acc
      done;
      !acc

let stats t = t.stats
