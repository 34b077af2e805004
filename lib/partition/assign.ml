type t = int Ir.Vreg.Map.t

let bank t r =
  match Ir.Vreg.Map.find_opt r t with
  | Some b -> b
  | None ->
      invalid_arg (Printf.sprintf "Assign.bank: register %s unassigned" (Ir.Vreg.to_string r))

let bank_opt t r = Ir.Vreg.Map.find_opt r t

let cluster_of_op t (op : Ir.Op.t) =
  match Ir.Op.dst op with
  | Some d -> bank t d
  | None -> (
      match Ir.Op.srcs op with
      | s :: _ -> bank t s
      | [] -> 0)

let of_list l = List.fold_left (fun acc (r, b) -> Ir.Vreg.Map.add r b acc) Ir.Vreg.Map.empty l

let park loop t =
  Ir.Vreg.Set.fold
    (fun r acc -> if Ir.Vreg.Map.mem r acc then acc else Ir.Vreg.Map.add r 0 acc)
    (Ir.Loop.vregs loop) t

let single_bank loop = park loop Ir.Vreg.Map.empty

let counts ~banks t =
  let a = Array.make banks 0 in
  Ir.Vreg.Map.iter
    (fun r b ->
      if b < 0 || b >= banks then
        invalid_arg
          (Printf.sprintf "Assign.counts: %s assigned to bank %d (of %d)"
             (Ir.Vreg.to_string r) b banks);
      a.(b) <- a.(b) + 1)
    t;
  a

let all_in_range ~banks t = Ir.Vreg.Map.for_all (fun _ b -> b >= 0 && b < banks) t

let copies_needed t ops =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let c = cluster_of_op t op in
      List.iter
        (fun r ->
          let b = bank t r in
          if b <> c then Hashtbl.replace seen (Ir.Vreg.id r, c) ())
        (Ir.Op.uses op))
    ops;
  Hashtbl.length seen

let pp ppf t =
  Format.fprintf ppf "@[<v>assignment:@,";
  Ir.Vreg.Map.iter
    (fun r b -> Format.fprintf ppf "  %s -> bank %d@," (Ir.Vreg.to_string r) b)
    t;
  Format.fprintf ppf "@]"
