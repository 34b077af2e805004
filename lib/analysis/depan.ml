type edge = {
  src : int;
  dst : int;
  kind : Ddg.Dep.kind;
  latency : int;
  distance : int;
}

let kind_rank : Ddg.Dep.kind -> int = function
  | Ddg.Dep.Flow -> 0
  | Ddg.Dep.Anti -> 1
  | Ddg.Dep.Output -> 2
  | Ddg.Dep.Mem Ddg.Dep.Mem_flow -> 3
  | Ddg.Dep.Mem Ddg.Dep.Mem_anti -> 4
  | Ddg.Dep.Mem Ddg.Dep.Mem_output -> 5

let compare_edge a b =
  let c = compare a.src b.src in
  if c <> 0 then c
  else
    let c = compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = compare (kind_rank a.kind) (kind_rank b.kind) in
      if c <> 0 then c else compare a.distance b.distance

type t = { edges : edge list; reachdef : Reachdef.t; stats : Solver.stats }

let distinct_uses op =
  List.fold_left
    (fun s r -> Ir.Vreg.Set.add r s)
    Ir.Vreg.Set.empty (Ir.Op.uses op)

let of_loop ?(latency = Mach.Latency.paper) loop =
  let arr = Array.of_list (Ir.Loop.ops loop) in
  let n = Array.length arr in
  let rd = Reachdef.of_loop loop in
  let op_by_id = Hashtbl.create n in
  Array.iter (fun op -> Hashtbl.replace op_by_id (Ir.Op.id op) op) arr;
  let lat_of id = Ir.Op.latency latency (Hashtbl.find op_by_id id) in
  (* Textual positions at which each register is (re)defined, ascending
     (gathered newest first, then reversed in place). *)
  let def_positions = Ir.Vreg.Tbl.create 16 in
  Array.iteri
    (fun i op ->
      List.iter
        (fun d ->
          let prev = Option.value ~default:[] (Ir.Vreg.Tbl.find_opt def_positions d) in
          Ir.Vreg.Tbl.replace def_positions d (i :: prev))
        (Ir.Op.defs op))
    arr;
  Ir.Vreg.Tbl.filter_map_inplace (fun _ l -> Some (List.rev l)) def_positions;
  let edges = ref [] in
  let emit src dst kind latency distance =
    edges := { src; dst; kind; latency; distance } :: !edges
  in
  for q = 0 to n - 1 do
    let oq = arr.(q) in
    let qid = Ir.Op.id oq in
    Ir.Vreg.Set.iter
      (fun r ->
        let reaching = Reachdef.reaching rd ~pos:q r in
        (* Flow: the definition a use reads, at its iteration distance,
           is by construction a flow dependence at that distance. *)
        List.iter
          (fun (def_id, d) -> emit def_id qid Ddg.Dep.Flow (lat_of def_id) d)
          reaching;
        (* Anti: a same-iteration read pins every later redefinition of
           the register behind it. A read at distance >= 1 consumes the
           previous iteration's instance, which expansion renames, so it
           constrains nothing. *)
        let reads_current = List.exists (fun (_, d) -> d = 0) reaching in
        if reads_current then
          List.iter
            (fun k ->
              if k > q then emit qid (Ir.Op.id arr.(k)) Ddg.Dep.Anti 0 0)
            (Option.value ~default:[] (Ir.Vreg.Tbl.find_opt def_positions r)))
      (distinct_uses oq)
  done;
  (* Output: every textual pair of definitions of one register, in
     order, must retire in order within an iteration. *)
  Ir.Vreg.Tbl.iter
    (fun _ positions ->
      List.iteri
        (fun i p ->
          List.iteri
            (fun j k ->
              if j > i then
                emit (Ir.Op.id arr.(p)) (Ir.Op.id arr.(k)) Ddg.Dep.Output 1 0)
            positions)
        positions)
    def_positions;
  (* Memory ordering via the abstract address domain. *)
  let refs =
    Array.to_list (Array.mapi (fun i op -> (i, op, Aaddr.of_op op)) arr)
  in
  let mem_lat (kind : Ddg.Dep.kind_mem) src_pos =
    match kind with
    | Ddg.Dep.Mem_flow -> Ir.Op.latency latency arr.(src_pos)
    | Ddg.Dep.Mem_anti | Ddg.Dep.Mem_output -> 1
  in
  List.iter
    (fun (p, op_p, ap) ->
      match ap with
      | None -> ()
      | Some a ->
          List.iter
            (fun (q, op_q, aq) ->
              match aq with
              | None -> ()
              | Some b when a.Aaddr.store || b.Aaddr.store ->
                  let kind : Ddg.Dep.kind_mem =
                    match (a.Aaddr.store, b.Aaddr.store) with
                    | true, false -> Ddg.Dep.Mem_flow
                    | false, true -> Ddg.Dep.Mem_anti
                    | true, true -> Ddg.Dep.Mem_output
                    | false, false -> assert false
                  in
                  (* A dependence into an earlier (or the same) textual
                     position needs at least one back-edge crossing. *)
                  let min_dist = if p < q then 0 else 1 in
                  let emit_mem d =
                    if d >= min_dist then
                      emit (Ir.Op.id op_p) (Ir.Op.id op_q) (Ddg.Dep.Mem kind)
                        (mem_lat kind p) d
                  in
                  (match Aaddr.dependence ~src:a ~dst:b with
                  | Aaddr.Independent -> ()
                  | Aaddr.At d -> emit_mem d
                  | Aaddr.All -> emit_mem min_dist)
              | Some _ -> ())
            refs)
    refs;
  let sorted = List.sort_uniq compare_edge !edges in
  { edges = sorted; reachdef = rd; stats = Reachdef.stats rd }

let edge_to_string e =
  Printf.sprintf "op%d -> op%d %s lat=%d dist=%d" e.src e.dst
    (Ddg.Dep.kind_to_string e.kind)
    e.latency e.distance
