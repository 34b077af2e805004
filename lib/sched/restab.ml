type request =
  | Fu of int
  | Fu_typed of int * Mach.Machine.fu_class list
  | Copy_to of int

(* Resource classes are numbered densely per row: [KFu (c, fc)] is
   [4c + fu_index fc], [KPort c] is [4C + c] and [KBus] is [5C], so one
   row holds [5C + 1] classes. Slot [row * nk + class] indexes [count],
   [held] and (modulo the row) [cap]. *)
type t = {
  modulus : int; (* ii, or 0 for flat tables *)
  clusters : int;
  nk : int; (* classes per row *)
  cap : int array; (* class -> capacity *)
  mutable rows : int; (* rows allocated; unallocated rows are empty *)
  mutable count : int array; (* slot -> number of holders *)
  mutable held : int list array; (* slot -> holding ops, most recent first *)
  mutable by_op : int list array; (* holder (a DDG node) -> slots it holds *)
}

let fu_index : Mach.Machine.fu_class -> int = function
  | General -> 0
  | Integer -> 1
  | Float_fu -> 2
  | Memory -> 3

let k_fu c fc = (4 * c) + fu_index fc
let k_general c = 4 * c
let k_port t c = (4 * t.clusters) + c
let k_bus t = 5 * t.clusters

let create machine ~modulus ~rows =
  let m : Mach.Machine.t = machine in
  let clusters = m.clusters in
  let nk = (5 * clusters) + 1 in
  let cap = Array.make nk 0 in
  for c = 0 to clusters - 1 do
    List.iter (fun (fc, n) -> cap.(k_fu c fc) <- n) m.fu_mix;
    cap.((4 * clusters) + c) <- m.copy_ports
  done;
  cap.(5 * clusters) <- m.busses;
  {
    modulus;
    clusters;
    nk;
    cap;
    rows;
    count = Array.make (rows * nk) 0;
    held = Array.make (rows * nk) [];
    by_op = Array.make 64 [];
  }

let create_flat machine = create machine ~modulus:0 ~rows:64

let create_modulo machine ~ii =
  (* True internal invariant: the schedulers only create tables for candidate
     IIs in [mii, max_ii] with mii >= 1 (enforced in Modulo.schedule). *)
  if ii < 1 then invalid_arg "Restab.create_modulo: ii must be >= 1";
  (* Rows grow on demand: [ii] can be far larger than any row used. *)
  create machine ~modulus:ii ~rows:(min ii 64)

let ii t = if t.modulus = 0 then None else Some t.modulus

let row t cycle =
  if cycle < 0 then invalid_arg "Restab: negative cycle";
  if t.modulus = 0 then cycle else cycle mod t.modulus

let check_cluster t c =
  if c < 0 || c >= t.clusters then invalid_arg "Restab: bad cluster"

let has_room t row k =
  (if row < t.rows then t.count.((row * t.nk) + k) else 0) < t.cap.(k)

let holders t row k = if row < t.rows then t.held.((row * t.nk) + k) else []

(* Acceptable unit classes in reservation preference order: specialized
   units first, General as the fallback, so General slots stay free for
   operations that have no specialized home. The first acceptable class
   with room at the row, or -1. *)
let rec first_room t row c = function
  | [] -> if has_room t row (k_general c) then k_general c else -1
  | fc :: rest ->
      let k = k_fu c fc in
      if has_room t row k then k else first_room t row c rest

let fu_room t row = function
  | Fu c -> check_cluster t c; first_room t row c []
  | Fu_typed (c, alts) -> check_cluster t c; first_room t row c alts
  | Copy_to _ -> invalid_arg "Restab.fu_room: not an FU request"

let fits t ~cycle req =
  let row = row t cycle in
  match req with
  | Fu _ | Fu_typed _ -> fu_room t row req >= 0
  | Copy_to c ->
      check_cluster t c;
      has_room t row (k_port t c) && has_room t row (k_bus t)

let grow_rows t row =
  let rows = max (row + 1) (2 * t.rows) in
  let rows = if t.modulus = 0 then rows else min rows t.modulus in
  let count = Array.make (rows * t.nk) 0 and held = Array.make (rows * t.nk) [] in
  Array.blit t.count 0 count 0 (Array.length t.count);
  Array.blit t.held 0 held 0 (Array.length t.held);
  t.rows <- rows;
  t.count <- count;
  t.held <- held

let claim t row k op =
  if op < 0 then invalid_arg "Restab: negative op";
  if row >= t.rows then grow_rows t row;
  if op >= Array.length t.by_op then begin
    let by_op = Array.make (max (op + 1) (2 * Array.length t.by_op)) [] in
    Array.blit t.by_op 0 by_op 0 (Array.length t.by_op);
    t.by_op <- by_op
  end;
  let s = (row * t.nk) + k in
  t.held.(s) <- op :: t.held.(s);
  t.count.(s) <- t.count.(s) + 1;
  t.by_op.(op) <- s :: t.by_op.(op)

let reserve t ~cycle ~op req =
  let row = row t cycle in
  match req with
  | Fu _ | Fu_typed _ ->
      let k = fu_room t row req in
      if k < 0 then invalid_arg "Restab.reserve: does not fit";
      claim t row k op
  | Copy_to c ->
      if not (fits t ~cycle req) then invalid_arg "Restab.reserve: does not fit";
      claim t row (k_port t c) op;
      claim t row (k_bus t) op

let release_op t ~op =
  if op >= 0 && op < Array.length t.by_op then begin
    List.iter
      (fun s ->
        let rest = List.filter (fun o -> o <> op) t.held.(s) in
        t.held.(s) <- rest;
        t.count.(s) <- List.length rest)
      t.by_op.(op);
    t.by_op.(op) <- []
  end

(* Victims whose release makes the request fit: for FU requests, the most
   recently placed holder of the first acceptable class (in preference
   order) that has one; for copies, one victim per saturated resource. *)
let victim t row k =
  match holders t row k with v :: _ when t.cap.(k) > 0 -> [ v ] | _ -> []

let rec first_victim t row c = function
  | [] -> victim t row (k_general c)
  | fc :: rest -> (
      match victim t row (k_fu c fc) with [] -> first_victim t row c rest | v -> v)

let conflicting_ops t ~cycle req =
  if fits t ~cycle req then []
  else
    let row = row t cycle in
    match req with
    | Fu c -> first_victim t row c []
    | Fu_typed (c, alts) -> first_victim t row c alts
    | Copy_to c ->
        let saturated k = if has_room t row k then [] else victim t row k in
        List.sort_uniq Int.compare (saturated (k_port t c) @ saturated (k_bus t))

let satisfiable t req =
  match req with
  | Fu c -> check_cluster t c; t.cap.(k_general c) > 0
  | Fu_typed (c, alts) ->
      check_cluster t c;
      t.cap.(k_general c) > 0 || List.exists (fun fc -> t.cap.(k_fu c fc) > 0) alts
  | Copy_to c -> check_cluster t c; t.cap.(k_port t c) > 0 && t.cap.(k_bus t) > 0

let request_for machine ~cluster (op : Ir.Op.t) =
  (* Kept as an exception because every pipeline entry point validates bank
     assignments (Assign.all_in_range) before deriving cluster maps, so an
     out-of-range cluster here means a scheduler bug, not bad input. *)
  if not (Mach.Machine.valid_cluster machine cluster) then
    invalid_arg "Restab.request_for: bad cluster";
  match (machine.Mach.Machine.copy_model, Ir.Op.is_copy op) with
  | Mach.Machine.Copy_unit, true -> Copy_to cluster
  | (Mach.Machine.Embedded | Mach.Machine.Copy_unit), _ ->
      if Mach.Machine.is_general_only machine then Fu cluster
      else Fu_typed (cluster, Mach.Machine.allowed_classes (Ir.Op.opcode op) (Ir.Op.cls op))
