let code_registers ops =
  List.fold_left
    (fun acc op ->
      List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc (Ir.Op.defs op @ Ir.Op.uses op))
    Ir.Vreg.Set.empty ops

let mapping_shape ~machine ~assignment ~mapping regs =
  let m : Mach.Machine.t = machine in
  Ir.Vreg.Set.fold
    (fun r acc ->
      let loc = Ir.Vreg.to_string r in
      match Ir.Vreg.Map.find_opt r mapping with
      | None ->
          Diag.error Diag.Alloc ~code:"AL001" ~loc "register has no physical mapping" :: acc
      | Some (b, idx) ->
          let acc =
            if Mach.Machine.valid_cluster m b then acc
            else
              Diag.error Diag.Alloc ~code:"AL002" ~loc
                (Printf.sprintf "mapped to bank %d of a %d-bank machine" b m.clusters)
              :: acc
          in
          let acc =
            if idx >= 0 && idx < m.regs_per_bank then acc
            else
              Diag.error Diag.Alloc ~code:"AL003" ~loc
                (Printf.sprintf "register index %d outside the %d-register bank" idx
                   m.regs_per_bank)
              :: acc
          in
          (match assignment with
          | Some asn -> (
              match Ir.Vreg.Map.find_opt r asn with
              | Some b' when b' <> b ->
                  Diag.error Diag.Alloc ~code:"AL005" ~loc
                    (Printf.sprintf "allocated in bank %d but partitioned to bank %d" b b')
                  :: acc
              | _ -> acc)
          | None -> acc))
    regs []
  |> List.rev

(* Same-physical-register conflicts, independently rederived: at every
   program point, all live registers must occupy distinct physical
   registers; and a definition clobbers its physical register, so
   nothing else may be live in it just after the defining op (except a
   copy's own source, the coalescing exception). *)
let conflicts ~mapping ~live_out ops =
  let live = Live.backward ops ~live_out in
  let size = Ir.Vreg.Dense.size live.Live.regs in
  let reg = Ir.Vreg.Dense.reg live.Live.regs in
  (* Number the physical registers in use: [slot.(k)] is register k's,
     or -1 when it has no mapping. *)
  let phys = Array.init size (fun k -> Ir.Vreg.Map.find_opt (reg k) mapping) in
  let slots = Hashtbl.create 16 in
  let slot =
    Array.map
      (function
        | None -> -1
        | Some p -> (
            match Hashtbl.find_opt slots p with
            | Some s -> s
            | None ->
                let s = Hashtbl.length slots in
                Hashtbl.add slots p s;
                s))
      phys
  in
  let seen = Hashtbl.create 16 in
  let findings = ref [] in
  let conflict r1 r2 why =
    let a, b = if Ir.Vreg.id r1 <= Ir.Vreg.id r2 then (r1, r2) else (r2, r1) in
    let key = (Ir.Vreg.id a, Ir.Vreg.id b) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings :=
        Diag.error Diag.Alloc ~code:"AL004"
          ~loc:(Printf.sprintf "%s / %s" (Ir.Vreg.to_string a) (Ir.Vreg.to_string b))
          why
        :: !findings
    end
  in
  (* At each point, the last register seen in each physical register:
     [owner.(s)] is current when [stamp.(s)] is the point. *)
  let owner = Array.make (Hashtbl.length slots) 0 in
  let stamp = Array.make (Hashtbl.length slots) (-1) in
  Array.iteri
    (fun point row ->
      Util.Bitrow.iter
        (fun k ->
          let s = slot.(k) in
          if s >= 0 then begin
            if stamp.(s) = point then begin
              let b, i = Option.get phys.(k) in
              conflict (reg k) (reg owner.(s))
                (Printf.sprintf "simultaneously live registers share bank %d register %d" b i)
            end;
            stamp.(s) <- point;
            owner.(s) <- k
          end)
        row)
    live.Live.rows;
  List.iteri
    (fun i op ->
      match Ir.Op.dst op with
      | None -> ()
      | Some d -> (
          let kd = Ir.Vreg.Dense.find live.Live.regs d in
          match phys.(kd) with
          | None -> ()
          | Some (b, idx) ->
              let coalesced r =
                Ir.Op.is_copy op && List.exists (Ir.Vreg.equal r) (Ir.Op.srcs op)
              in
              Util.Bitrow.iter
                (fun k ->
                  if k <> kd && slot.(k) = slot.(kd) && not (coalesced (reg k)) then
                    conflict d (reg k)
                      (Printf.sprintf
                         "definition at op %d clobbers bank %d register %d while it is live"
                         (Ir.Op.id op) b idx))
                live.Live.rows.(i + 1)))
    ops;
  List.rev !findings

let check ~machine ?assignment ~mapping ~live_out ops =
  let regs = code_registers ops in
  mapping_shape ~machine ~assignment ~mapping regs @ conflicts ~mapping ~live_out ops
