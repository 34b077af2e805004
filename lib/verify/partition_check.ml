let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

let bank_of assignment r = Ir.Vreg.Map.find_opt r assignment

(* An operation executes where its destination lives; a store (or nop)
   where its first source lives; register-free ops default to bank 0. *)
let cluster_of_op assignment op =
  match Ir.Op.dst op with
  | Some d -> bank_of assignment d
  | None -> ( match Ir.Op.srcs op with r :: _ -> bank_of assignment r | [] -> Some 0)

let code_registers ops =
  List.fold_left
    (fun acc op ->
      List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc (Ir.Op.defs op @ Ir.Op.uses op))
    Ir.Vreg.Set.empty ops

let coverage ~machine ~assignment ops =
  let m : Mach.Machine.t = machine in
  Ir.Vreg.Set.fold
    (fun r acc ->
      match bank_of assignment r with
      | None ->
          Diag.error Diag.Partition ~code:"PT001" ~loc:(Ir.Vreg.to_string r)
            "register has no bank assignment"
          :: acc
      | Some b when not (Mach.Machine.valid_cluster m b) ->
          Diag.error Diag.Partition ~code:"PT002" ~loc:(Ir.Vreg.to_string r)
            (Printf.sprintf "assigned to bank %d of a %d-bank machine" b m.clusters)
          :: acc
      | Some _ -> acc)
    (code_registers ops) []
  |> List.rev

let locality ~assignment ops =
  List.concat_map
    (fun op ->
      if Ir.Op.is_copy op then []
      else
        match cluster_of_op assignment op with
        | None -> [] (* covered by PT001 *)
        | Some cluster ->
            List.filter_map
              (fun r ->
                match bank_of assignment r with
                | Some b when b <> cluster ->
                    Some
                      (Diag.error Diag.Partition ~code:"PT003" ~loc:(op_loc op)
                         (Printf.sprintf
                            "operand %s lives in bank %d but the operation executes on \
                             cluster %d"
                            (Ir.Vreg.to_string r) b cluster))
                | _ -> None)
              (Ir.Op.uses op))
    ops

let copy_shape ~assignment ops =
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
              match (bank_of assignment d, bank_of assignment s) with
              | Some bd, Some bs when bd = bs ->
                  malformed (Printf.sprintf "copy within bank %d moves nothing" bd)
              | _ -> [])
        | _ -> malformed "copy must read exactly one register and write one")
    ops

(* Which value of register r does a use at body position q read?  The
   cache key of a minimal copy-reuse scheme is (register, consuming
   cluster, reaching value). *)
type reaching = Invariant | Carried | Same_iter of int

let minimal_copies ~assignment loop =
  let ops = Array.of_list (Ir.Loop.ops loop) in
  let def_positions = Hashtbl.create 32 in
  Array.iteri
    (fun i op ->
      List.iter
        (fun d ->
          let k = Ir.Vreg.id d in
          Hashtbl.replace def_positions k
            (Option.value ~default:[] (Hashtbl.find_opt def_positions k) @ [ i ]))
        (Ir.Op.defs op))
    ops;
  let classify r q =
    match Hashtbl.find_opt def_positions (Ir.Vreg.id r) with
    | None | Some [] -> Invariant
    | Some positions -> (
        match List.rev (List.filter (fun p -> p < q) positions) with
        | [] -> Carried
        | p :: _ -> Same_iter p)
  in
  let transfers = Hashtbl.create 16 in
  Array.iteri
    (fun q op ->
      match cluster_of_op assignment op with
      | None -> ()
      | Some cluster ->
          List.iter
            (fun r ->
              match bank_of assignment r with
              | Some b when b <> cluster ->
                  Hashtbl.replace transfers (Ir.Vreg.id r, cluster, classify r q) ()
              | _ -> ())
            (Ir.Op.uses op))
    ops;
  Hashtbl.length transfers

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

let pressure ~machine ~assignment loop =
  let m : Mach.Machine.t = machine in
  let ops = Ir.Loop.ops loop in
  let live = Live.backward ops ~live_out:(Live.loop_live_out loop) in
  let bank =
    Array.init (Ir.Vreg.Dense.size live.Live.regs) (fun k ->
        match bank_of assignment (Ir.Vreg.Dense.reg live.Live.regs k) with
        | Some b when Mach.Machine.valid_cluster m b -> b
        | _ -> -1)
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

let check ~machine ~assignment ?original rewritten =
  let ops = Ir.Loop.ops rewritten in
  coverage ~machine ~assignment ops
  @ locality ~assignment ops
  @ copy_shape ~assignment ops
  @ (match original with
    | Some o -> copy_minimality ~assignment ~original:o rewritten
    | None -> [])
  @ pressure ~machine ~assignment rewritten

let check_block ~machine ~assignment block =
  let ops = Ir.Block.ops block in
  if ops = [] then []
  else
    coverage ~machine ~assignment ops
    @ locality ~assignment ops
    @ copy_shape ~assignment ops
