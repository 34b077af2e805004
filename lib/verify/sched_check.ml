let op_loc op = Printf.sprintf "op %d (%s)" (Ir.Op.id op) (Ir.Op.to_string op)

(* A schedule's placements as per-op arrays, in placement order, tied
   to the DDG's nodes: [node.(k)] is placement [k]'s node, or -1 for an
   op the DDG does not hold, and [at.(v)] is node [v]'s placement (the
   first, for a repeated op), or -1. *)
type placed = {
  ops : Ir.Op.t array;
  cycles : int array;
  clusters : int array;
  node : int array;
  at : int array;
}

let placed_of ~ddg (ps : Sched.Schedule.placement list) =
  let n = List.length ps in
  let ops = match ps with [] -> [||] | p :: _ -> Array.make n p.op in
  let cycles = Array.make n 0 and clusters = Array.make n 0 in
  List.iteri
    (fun k (p : Sched.Schedule.placement) ->
      ops.(k) <- p.op;
      cycles.(k) <- p.cycle;
      clusters.(k) <- p.cluster)
    ps;
  let node =
    Array.map (fun op -> try Ddg.Graph.index ddg (Ir.Op.id op) with Not_found -> -1) ops
  in
  let at = Array.make (Ddg.Graph.size ddg) (-1) in
  for k = n - 1 downto 0 do
    if node.(k) >= 0 then at.(node.(k)) <- k
  done;
  { ops; cycles; clusters; node; at }

let coverage ~(ddg : Ddg.Graph.t) pl =
  let missing = ref [] and foreign = ref [] in
  for i = Array.length ddg.order - 1 downto 0 do
    let v = ddg.order.(i) in
    if pl.at.(v) < 0 then
      missing :=
        Diag.error Diag.Sched ~code:"SCH001" ~loc:(op_loc ddg.ops.(v))
          "operation is not scheduled"
        :: !missing
  done;
  for k = Array.length pl.ops - 1 downto 0 do
    if pl.node.(k) < 0 then
      foreign :=
        Diag.error Diag.Sched ~code:"SCH005" ~loc:(op_loc pl.ops.(k))
          "scheduled operation does not belong to the dependence graph"
        :: !foreign
  done;
  !missing @ !foreign

(* Every edge, source by source in ascending id order and each source's
   row in order: t(dst) - t(src) >= latency - ii * distance. A flat
   schedule is the ii = infinity case restricted to distance-0 edges
   ([carried = false]). *)
let edges ~(ddg : Ddg.Graph.t) ~ii ~carried pl =
  let found = ref [] in
  for v = Ddg.Graph.size ddg - 1 downto 0 do
    for k = ddg.succ_off.(v + 1) - 1 downto ddg.succ_off.(v) do
      let w = ddg.succ_node.(k) in
      let s = pl.at.(v) and d = pl.at.(w) in
      (* an unscheduled endpoint is reported by coverage *)
      if s >= 0 && d >= 0 && (carried || ddg.succ_dist.(k) = 0) then begin
        let ts = pl.cycles.(s) and td = pl.cycles.(d) in
        let need = ddg.succ_lat.(k) - (ii * ddg.succ_dist.(k)) in
        if td - ts < need then
          found :=
            Diag.error Diag.Sched ~code:"SCH002"
              ~loc:(Printf.sprintf "edge %d->%d" ddg.ids.(v) ddg.ids.(w))
              (Printf.sprintf "%s dependence violated: cycle %d - %d < %d"
                 (Ddg.Dep.to_string (Ddg.Graph.succ_label ddg k))
                 td ts need)
            :: !found
      end
    done
  done;
  !found

(* SCH003 findings are reported in the order that folding a [Hashtbl]
   of the counted keys lists them, consing each finding: the order
   [rbp lint] output and its digest pin. A table made by [Hashtbl.create
   initial] (a power of two, at least 16) doubles its buckets whenever
   it holds more than twice as many keys as buckets; a key sits in
   bucket [Hashtbl.hash key land (buckets - 1)]; a bucket holds its keys
   newest first, and resizing keeps that order. [Hashtbl.fold] walks the
   buckets upwards, and consing its findings onto the accumulator
   reverses the walk. So the findings come out by bucket, highest
   first, and within a bucket in the order the keys were first
   inserted. [cells] are the reported keys, [hash] and [first] their
   hash and first-insertion rank, and [keys] how many distinct keys the
   table held. *)
let buckets ~initial ~keys =
  let rec size b = if keys <= 2 * b then b else size (2 * b) in
  size initial

let fold_order ~initial ~keys ~hash ~first cells =
  let buckets = buckets ~initial ~keys in
  let bucket c = hash c land (buckets - 1) in
  List.stable_sort
    (fun a b ->
      let c = Int.compare (bucket b) (bucket a) in
      if c <> 0 then c else Int.compare (first a) (first b))
    cells

let fu_classes =
  [| Mach.Machine.General; Mach.Machine.Integer; Mach.Machine.Float_fu; Mach.Machine.Memory |]

let class_index : Mach.Machine.fu_class -> int = function
  | Mach.Machine.General -> 0
  | Mach.Machine.Integer -> 1
  | Mach.Machine.Float_fu -> 2
  | Mach.Machine.Memory -> 3

(* Per-(cluster, normalized cycle) capacity counting. Specialized unit
   mixes use Hall's condition: each class's demand beyond its dedicated
   units must fit in the General pool.

   Counts live in dense arrays over cells [cluster * nslots + slot
   rank], the slots being the distinct normalized cycles in ascending
   order. Each count keeps the rank at which its key was first counted,
   which, with the key's hash, fixes where its finding is listed (see
   [fold_order]): functional units in a table of initial size 64, copy
   ports and busses (keyed by slot alone) in tables of 16. *)
let resources ~machine ~normalize pl =
  let m : Mach.Machine.t = machine in
  let n = Array.length pl.ops in
  let valid = Array.map (Mach.Machine.valid_cluster m) pl.clusters in
  let slot = Array.map normalize pl.cycles in
  let slots =
    let s = ref [] in
    for k = n - 1 downto 0 do
      if valid.(k) then s := slot.(k) :: !s
    done;
    Array.of_list (List.sort_uniq Int.compare !s)
  in
  let nslots = Array.length slots in
  let rank x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if slots.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 nslots
  in
  let ncells = m.clusters * nslots in
  (* A table of counts: per key, its count and first-insertion rank. *)
  let table size = (Array.make size 0, Array.make size (-1), ref 0) in
  let bump (count, first, keys) k =
    if count.(k) = 0 then begin
      first.(k) <- !keys;
      incr keys
    end;
    count.(k) <- count.(k) + 1
  in
  let fu_slots = table ncells and ports = table ncells and busses = table nslots in
  let typed = not (Mach.Machine.is_general_only m) in
  let class_demand = table (if typed then 4 * ncells else 0) in
  let bad_cluster = ref [] in
  for k = 0 to n - 1 do
    let op = pl.ops.(k) and cluster = pl.clusters.(k) in
    if not valid.(k) then
      bad_cluster :=
        Diag.error Diag.Sched ~code:"SCH004" ~loc:(op_loc op)
          (Printf.sprintf "placed on cluster %d of a %d-cluster machine" cluster m.clusters)
        :: !bad_cluster
    else begin
      let s = rank slot.(k) in
      let cell = (cluster * nslots) + s in
      match (m.copy_model, Ir.Op.is_copy op) with
      | Mach.Machine.Copy_unit, true ->
          bump ports cell;
          bump busses s
      | (Mach.Machine.Embedded | Mach.Machine.Copy_unit), _ ->
          bump fu_slots cell;
          if typed then
            List.iter
              (fun fc -> bump class_demand ((4 * cell) + class_index fc))
              (Mach.Machine.allowed_classes (Ir.Op.opcode op) (Ir.Op.cls op))
    end
  done;
  let cluster_of cell = cell / nslots and slot_of cell = slots.(cell mod nslots) in
  let over (count, first, keys) ~initial cap ~hash what =
    let cells = ref [] in
    Array.iteri (fun c x -> if x > 0 && x > cap then cells := c :: !cells) count;
    List.map
      (fun c ->
        Diag.error Diag.Sched ~code:"SCH003" ~loc:(what c)
          (Printf.sprintf "%d issued where capacity is %d" count.(c) cap))
      (fold_order ~initial ~keys:!keys ~hash ~first:(fun c -> first.(c)) !cells)
  in
  let cell_hash c = Hashtbl.hash (cluster_of c, slot_of c) in
  let fu_over =
    over fu_slots ~initial:64 m.fus_per_cluster ~hash:cell_hash (fun c ->
        Printf.sprintf "functional units, cluster %d slot %d" (cluster_of c) (slot_of c))
  in
  let port_over =
    over ports ~initial:16 m.copy_ports ~hash:cell_hash (fun c ->
        Printf.sprintf "copy ports, cluster %d slot %d" (cluster_of c) (slot_of c))
  in
  let bus_over =
    over busses ~initial:16 m.busses
      ~hash:(fun s -> Hashtbl.hash slots.(s))
      (fun s -> Printf.sprintf "busses, slot %d" slots.(s))
  in
  let hall =
    if not typed then []
    else begin
      let cap_of fc = Option.value ~default:0 (List.assoc_opt fc m.fu_mix) in
      let general = cap_of Mach.Machine.General in
      let demand, first, keys = class_demand in
      let overflow cell =
        let o = ref 0 in
        for j = 0 to 3 do
          o := !o + max 0 (demand.((4 * cell) + j) - cap_of fu_classes.(j))
        done;
        !o
      in
      let cells = ref [] and with_demand = ref 0 in
      for cell = ncells - 1 downto 0 do
        if first.(4 * cell) >= 0 || first.((4 * cell) + 1) >= 0
           || first.((4 * cell) + 2) >= 0 || first.((4 * cell) + 3) >= 0
        then begin
          incr with_demand;
          if overflow cell > general then cells := cell :: !cells
        end
      done;
      if !cells = [] then []
      else begin
        (* Class demands are counted per (cluster, slot, class) key in a
           table of initial size 64 and grouped per cell into a table of
           32 by iterating the first: a cell enters the second at its
           first key in that iteration, which walks the buckets upwards
           and each bucket newest first. *)
        let buckets = buckets ~initial:64 ~keys:!keys in
        let visit key =
          let c = key / 4 in
          let bucket =
            Hashtbl.hash (cluster_of c, slot_of c, fu_classes.(key mod 4)) land (buckets - 1)
          in
          (bucket * (!keys + 1)) + (!keys - first.(key))
        in
        let entered cell =
          let e = ref max_int in
          for j = 0 to 3 do
            let key = (4 * cell) + j in
            if first.(key) >= 0 then e := min !e (visit key)
          done;
          !e
        in
        List.map
          (fun c ->
            Diag.error Diag.Sched ~code:"SCH003"
              ~loc:
                (Printf.sprintf "specialized units, cluster %d slot %d" (cluster_of c)
                   (slot_of c))
              (Printf.sprintf "class overflow %d exceeds %d general units" (overflow c) general))
          (fold_order ~initial:32 ~keys:!with_demand ~hash:cell_hash ~first:entered !cells)
      end
    end
  in
  !bad_cluster @ fu_over @ port_over @ bus_over @ hall

let kernel ~machine ~ddg k =
  let pl = placed_of ~ddg (Sched.Kernel.placements k) in
  let ii = Sched.Kernel.ii k in
  coverage ~ddg pl
  @ edges ~ddg ~ii ~carried:true pl
  @ resources ~machine ~normalize:(fun c -> c mod ii) pl

let flat ~machine ~ddg sched =
  let pl = placed_of ~ddg (Sched.Schedule.placements sched) in
  coverage ~ddg pl
  @ edges ~ddg ~ii:0 ~carried:false pl
  @ resources ~machine ~normalize:(fun c -> c) pl
