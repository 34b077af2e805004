let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

(* The registers of some code, numbered in [Ir.Vreg.compare] order,
   each with its bank: one assignment lookup per register rather than
   per use. *)
type banks = {
  regs : Ir.Vreg.Dense.t;
  assigned : bool array;  (* the register has a bank *)
  bank : int array;  (* that bank *)
}

let banks_of ~assignment regs =
  let size = Ir.Vreg.Dense.size regs in
  let assigned = Array.make size false and bank = Array.make size 0 in
  for k = 0 to size - 1 do
    match Ir.Vreg.Map.find_opt (Ir.Vreg.Dense.reg regs k) assignment with
    | Some b ->
        assigned.(k) <- true;
        bank.(k) <- b
    | None -> ()
  done;
  { regs; assigned; bank }

let code_registers ops =
  Ir.Vreg.Dense.of_iter (fun f ->
      List.iter
        (fun op ->
          List.iter f (Ir.Op.defs op);
          List.iter f (Ir.Op.uses op))
        ops)

let bank_of b r =
  let k = Ir.Vreg.Dense.find b.regs r in
  if b.assigned.(k) then Some b.bank.(k) else None

(* An operation executes where its destination lives; a store (or nop)
   where its first source lives; register-free ops default to bank 0. *)
let cluster_of_op b op =
  match Ir.Op.dst op with
  | Some d -> bank_of b d
  | None -> ( match Ir.Op.srcs op with r :: _ -> bank_of b r | [] -> Some 0)

(* PT001/PT002 over the registers the ops mention, ascending. *)
let coverage ~machine b ops =
  let m : Mach.Machine.t = machine in
  let in_code = Array.make (Ir.Vreg.Dense.size b.regs) false in
  let mark r = in_code.(Ir.Vreg.Dense.find b.regs r) <- true in
  List.iter
    (fun op ->
      List.iter mark (Ir.Op.defs op);
      List.iter mark (Ir.Op.uses op))
    ops;
  let found = ref [] in
  for k = Array.length in_code - 1 downto 0 do
    if in_code.(k) then begin
      let r = Ir.Vreg.Dense.reg b.regs k in
      if not b.assigned.(k) then
        found :=
          Diag.error Diag.Partition ~code:"PT001" ~loc:(Ir.Vreg.to_string r)
            "register has no bank assignment"
          :: !found
      else if not (Mach.Machine.valid_cluster m b.bank.(k)) then
        found :=
          Diag.error Diag.Partition ~code:"PT002" ~loc:(Ir.Vreg.to_string r)
            (Printf.sprintf "assigned to bank %d of a %d-bank machine" b.bank.(k) m.clusters)
          :: !found
    end
  done;
  !found

let locality b ops =
  List.concat_map
    (fun op ->
      if Ir.Op.is_copy op then []
      else
        match cluster_of_op b op with
        | None -> [] (* covered by PT001 *)
        | Some cluster ->
            List.filter_map
              (fun r ->
                let k = Ir.Vreg.Dense.find b.regs r in
                if b.assigned.(k) && b.bank.(k) <> cluster then
                  Some
                    (Diag.error Diag.Partition ~code:"PT003" ~loc:(op_loc op)
                       (Printf.sprintf
                          "operand %s lives in bank %d but the operation executes on \
                           cluster %d"
                          (Ir.Vreg.to_string r) b.bank.(k) cluster))
                else None)
              (Ir.Op.uses op))
    ops

let copy_shape b ops =
  List.concat_map
    (fun op ->
      if not (Ir.Op.is_copy op) then []
      else
        let malformed msg = [ Diag.error Diag.Partition ~code:"PT004" ~loc:(op_loc op) msg ] in
        match (Ir.Op.dst op, Ir.Op.srcs op) with
        | Some d, [ s ] -> (
            if Ir.Vreg.cls d <> Ir.Vreg.cls s then
              malformed "copy changes the register class"
            else
              match (bank_of b d, bank_of b s) with
              | Some bd, Some bs when bd = bs ->
                  malformed (Printf.sprintf "copy within bank %d moves nothing" bd)
              | _ -> [])
        | _ -> malformed "copy must read exactly one register and write one")
    ops

(* Which value of register r does a use at body position q read?  The
   cache key of a minimal copy-reuse scheme is (register, consuming
   cluster, reaching value), the value being the latest definition
   before q in this iteration ([q] > p >= 0), else the carried one (-1)
   when r is defined in the body, else the invariant (-2). *)
let minimal_copies ~assignment loop =
  let ops = Array.of_list (Ir.Loop.ops loop) in
  let b = banks_of ~assignment (code_registers (Ir.Loop.ops loop)) in
  let size = Ir.Vreg.Dense.size b.regs in
  (* Positions defining each register, ascending, as compressed rows. *)
  let start = Array.make (size + 1) 0 in
  Array.iter
    (fun op ->
      List.iter
        (fun d ->
          let k = Ir.Vreg.Dense.find b.regs d in
          start.(k + 1) <- start.(k + 1) + 1)
        (Ir.Op.defs op))
    ops;
  for k = 0 to size - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let pos = Array.make start.(size) 0 and fill = Array.sub start 0 size in
  Array.iteri
    (fun i op ->
      List.iter
        (fun d ->
          let k = Ir.Vreg.Dense.find b.regs d in
          pos.(fill.(k)) <- i;
          fill.(k) <- fill.(k) + 1)
        (Ir.Op.defs op))
    ops;
  let reaching k q =
    if start.(k) = start.(k + 1) then -2
    else begin
      let v = ref (-1) in
      for j = start.(k) to start.(k + 1) - 1 do
        if pos.(j) < q then v := pos.(j)
      done;
      !v
    end
  in
  let transfers = ref [] in
  Array.iteri
    (fun q op ->
      match cluster_of_op b op with
      | None -> ()
      | Some cluster ->
          List.iter
            (fun r ->
              let k = Ir.Vreg.Dense.find b.regs r in
              if b.assigned.(k) && b.bank.(k) <> cluster then
                transfers := (k, cluster, reaching k q) :: !transfers)
            (Ir.Op.uses op))
    ops;
  let compare (k, c, v) (k', c', v') =
    let x = Int.compare k k' in
    if x <> 0 then x
    else
      let x = Int.compare c c' in
      if x <> 0 then x else Int.compare v v'
  in
  List.length (List.sort_uniq compare !transfers)

let copy_minimality ~assignment ~original rewritten =
  let emitted = List.length (List.filter Ir.Op.is_copy (Ir.Loop.ops rewritten)) in
  let needed = minimal_copies ~assignment original in
  if emitted > needed then
    [
      Diag.warning Diag.Partition ~code:"PT005" ~loc:(Ir.Loop.name rewritten)
        (Printf.sprintf "%d copies emitted where %d cross-bank transfers suffice" emitted
           needed);
    ]
  else []

let pressure ~machine b (live : Live.t) =
  let m : Mach.Machine.t = machine in
  let bank =
    Array.init (Ir.Vreg.Dense.size b.regs) (fun k ->
        if b.assigned.(k) && Mach.Machine.valid_cluster m b.bank.(k) then b.bank.(k) else -1)
  in
  let worst = Array.make m.clusters 0 in
  let per_bank = Array.make m.clusters 0 in
  Array.iter
    (fun row ->
      Array.fill per_bank 0 m.clusters 0;
      Util.Bitrow.iter
        (fun k -> if bank.(k) >= 0 then per_bank.(bank.(k)) <- per_bank.(bank.(k)) + 1)
        row;
      Array.iteri (fun b n -> if n > worst.(b) then worst.(b) <- n) per_bank)
    live.Live.rows;
  let findings = ref [] in
  Array.iteri
    (fun b n ->
      if n > m.regs_per_bank then
        findings :=
          Diag.warning Diag.Partition ~code:"PT006" ~loc:(Printf.sprintf "bank %d" b)
            (Printf.sprintf "%d registers simultaneously live but the bank holds %d" n
               m.regs_per_bank)
          :: !findings)
    worst;
  List.rev !findings

(* The liveness numbering covers the code's registers (and the
   live-outs), so one bank table serves every check. *)
let check ~machine ~assignment ?original rewritten =
  let ops = Ir.Loop.ops rewritten in
  let live = Live.backward ops ~live_out:(Live.loop_live_out rewritten) in
  let b = banks_of ~assignment live.Live.regs in
  coverage ~machine b ops
  @ locality b ops
  @ copy_shape b ops
  @ (match original with
    | Some o -> copy_minimality ~assignment ~original:o rewritten
    | None -> [])
  @ pressure ~machine b live

let check_block ~machine ~assignment block =
  let ops = Ir.Block.ops block in
  if ops = [] then []
  else
    let b = banks_of ~assignment (code_registers ops) in
    coverage ~machine b ops @ locality b ops @ copy_shape b ops
