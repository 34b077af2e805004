type t = {
  code : Ir.Op.t list;
  mapping : (int * int) Ir.Vreg.Map.t;
  assignment : Partition.Assign.t;
  spill_count : int;
  rounds : int;
  pressure : int array;
  live_out : Ir.Vreg.Set.t;
}

let code_registers ops =
  List.fold_left
    (fun acc op ->
      List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc (Ir.Op.defs op @ Ir.Op.uses op))
    Ir.Vreg.Set.empty ops

let allocate ?obs ?(max_rounds = 8) ?(subject = "code") ~machine ~assignment ~live_out ops =
  let m : Mach.Machine.t = machine in
  let banks = m.clusters in
  let k = m.regs_per_bank in
  Obs.Trace.span obs "alloc"
    ~attrs:[ ("subject", subject); ("banks", string_of_int banks) ]
  @@ fun () ->
  let fail ?code message =
    Error (Verify.Stage_error.make ?code ~stage:Verify.Stage_error.Allocation ~subject message)
  in
  let unassigned r = Partition.Assign.bank_opt assignment r = None in
  if List.exists (fun op -> List.exists unassigned (Ir.Op.defs op @ Ir.Op.uses op)) ops then
    fail ~code:"AL001"
      (Printf.sprintf "unassigned registers: %s"
         (String.concat ", "
            (List.map Ir.Vreg.to_string
               (Ir.Vreg.Set.elements (Ir.Vreg.Set.filter unassigned (code_registers ops))))))
  else begin
    (* Fail fast when no amount of spilling can help: all distinct source
       registers of one operation are live at that operation, and spill
       reloads land in the same bank, so an op reading more than [k]
       distinct bank-[b] registers can never colour. Without this check
       the spiller grinds through every round on such inputs (growing
       the body with useless spill code each time) before giving up. *)
    let irreducible =
      List.find_map
        (fun op ->
          let uses = List.sort_uniq Ir.Vreg.compare (Ir.Op.uses op) in
          let per_bank = Hashtbl.create 4 in
          List.iter
            (fun r ->
              let b = Partition.Assign.bank assignment r in
              Hashtbl.replace per_bank b
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_bank b)))
            uses;
          Hashtbl.fold
            (fun b n acc -> if n > k && acc = None then Some (op, b, n) else acc)
            per_bank None)
        ops
    in
    match irreducible with
    | Some (op, b, n) ->
        fail
          (Printf.sprintf
             "bank %d pressure is irreducible: %s reads %d distinct bank-%d registers \
              but the bank holds %d"
             b (Ir.Op.to_string op) n b k)
    | None ->
    let rec round ops assignment ~live_out spill_count n =
      if n > max_rounds then
        fail
          (Printf.sprintf "still spilling after %d round(s) (%d registers spilled so far)"
             max_rounds spill_count)
      else begin
        Obs.Trace.span obs "alloc.round" ~attrs:[ ("round", string_of_int n) ]
        @@ fun () ->
        let bank_of r =
          match Partition.Assign.bank_opt assignment r with Some b -> b | None -> -1
        in
        let graphs = Interference.build_banks ~banks ~bank_of (Liveness.dense ops ~live_out) in
        let pressure = Array.map Interference.max_clique_lower_bound graphs in
        let results =
          List.init banks (fun b ->
              let g = graphs.(b) in
              if obs <> None then
                Obs.Trace.emit obs
                  (Obs.Events.Alloc_pressure
                     {
                       bank = b;
                       round = n;
                       pressure = pressure.(b);
                       conflict_nodes = Interference.size g;
                       conflict_edges = Interference.edge_count g;
                     });
              (b, Color.color ~k g))
        in
        let spilled = List.concat_map (fun (_, (r : Color.result)) -> r.spilled) results in
        Obs.Trace.incr obs Obs.Counter.Alloc_rounds 1;
        if obs <> None then
          List.iter
            (fun r ->
              Obs.Trace.emit obs
                (Obs.Events.Spill
                   {
                     reg = Ir.Vreg.to_string r;
                     bank = Partition.Assign.bank assignment r;
                     round = n;
                   }))
            spilled;
        if spilled = [] then begin
          let mapping =
            List.fold_left
              (fun acc (b, (r : Color.result)) ->
                Ir.Vreg.Map.fold
                  (fun reg c acc -> Ir.Vreg.Map.add reg (b, c) acc)
                  r.Color.colors acc)
              Ir.Vreg.Map.empty results
          in
          Ok { code = ops; mapping; assignment; spill_count; rounds = n; pressure; live_out }
        end
        else begin
          let fresh_vreg =
            1 + Ir.Vreg.Set.fold (fun r acc -> max acc (Ir.Vreg.id r)) (code_registers ops) 0
          in
          let fresh_op = 1 + List.fold_left (fun acc op -> max acc (Ir.Op.id op)) 0 ops in
          let rw = Spill.rewrite ~spilled ~fresh_vreg ~fresh_op ops in
          let assignment =
            List.fold_left
              (fun acc (tmp, orig) ->
                Ir.Vreg.Map.add tmp (Partition.Assign.bank acc orig) acc)
              assignment rw.Spill.temps
          in
          (* A spilled register now lives in its memory slot: it must not
             stay live-out or it would be "spilled" again every round. *)
          let live_out =
            List.fold_left (fun acc r -> Ir.Vreg.Set.remove r acc) live_out spilled
          in
          round rw.Spill.ops assignment ~live_out
            (spill_count + List.length spilled)
            (n + 1)
        end
      end
    in
    round ops assignment ~live_out 0 1
  end

let allocate_loop ?obs ?max_rounds ~machine ~assignment loop =
  allocate ?obs ?max_rounds ~subject:(Ir.Loop.name loop) ~machine ~assignment
    ~live_out:(Liveness.loop_live_out loop)
    (Ir.Loop.ops loop)

let diagnostics ~machine t =
  Verify.Alloc_check.check ~machine ~assignment:t.assignment ~mapping:t.mapping
    ~live_out:t.live_out t.code

let check ~machine t =
  let m : Mach.Machine.t = machine in
  let regs = code_registers t.code in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* () =
    Ir.Vreg.Set.fold
      (fun r acc ->
        let* () = acc in
        match Ir.Vreg.Map.find_opt r t.mapping with
        | None -> Error (Printf.sprintf "register %s unmapped" (Ir.Vreg.to_string r))
        | Some (b, c) ->
            if not (Mach.Machine.valid_cluster m b) then
              Error (Printf.sprintf "register %s in invalid bank %d" (Ir.Vreg.to_string r) b)
            else if c < 0 || c >= m.regs_per_bank then
              Error (Printf.sprintf "register %s index %d out of range" (Ir.Vreg.to_string r) c)
            else Ok ())
      regs (Ok ())
  in
  (* Interference re-check per bank on the final code. *)
  let bank_of r = match Ir.Vreg.Map.find_opt r t.mapping with Some (b, _) -> b | None -> -1 in
  let graphs =
    Interference.build_banks ~banks:m.clusters ~bank_of (Liveness.dense t.code ~live_out:t.live_out)
  in
  Array.fold_left
    (fun acc g ->
      let* () = acc in
      Color.check g (Ir.Vreg.Map.map snd t.mapping))
    (Ok ()) graphs
