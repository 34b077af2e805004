type t = { id : int; cls : Mach.Rclass.t; name : string option }

let make ?name ~id ~cls () =
  if id < 0 then invalid_arg "Vreg.make: negative id";
  { id; cls; name }

let id t = t.id
let cls t = t.cls
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id

let to_string t =
  match t.name with
  | Some n -> n
  | None ->
      let prefix = match t.cls with Mach.Rclass.Int -> "r" | Mach.Rclass.Float -> "f" in
      prefix ^ string_of_int t.id

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Dense = struct
  type reg = t

  type t = {
    regs : reg array;
    index : int array;  (* id -> number, or -1; ids past its end are looked up in [sparse] *)
    sparse : int Tbl.t;
  }

  let none = { id = -1; cls = Mach.Rclass.Int; name = None }

  let of_iter iter =
    let max_id = ref (-1) and visits = ref 0 in
    iter (fun r ->
        incr visits;
        if r.id > !max_id then max_id := r.id);
    if !max_id < (4 * !visits) + 64 then begin
      (* Ids are small: an array indexed by id, numbered by one scan. *)
      let by_id = Array.make (!max_id + 1) none in
      iter (fun r -> if by_id.(r.id).id < 0 then by_id.(r.id) <- r);
      let index = Array.make (!max_id + 1) (-1) and n = ref 0 in
      Array.iteri
        (fun id r ->
          if r.id >= 0 then begin
            index.(id) <- !n;
            incr n
          end)
        by_id;
      let regs = Array.make !n none in
      Array.iteri (fun id k -> if k >= 0 then regs.(k) <- by_id.(id)) index;
      { regs; index; sparse = Tbl.create 1 }
    end
    else begin
      let seen = Tbl.create 64 in
      iter (fun r -> if not (Tbl.mem seen r) then Tbl.add seen r ());
      let regs = Array.of_list (List.sort compare (Tbl.fold (fun r () acc -> r :: acc) seen [])) in
      let sparse = Tbl.create (Array.length regs) in
      Array.iteri (fun k r -> Tbl.replace sparse r k) regs;
      { regs; index = [||]; sparse }
    end

  let size t = Array.length t.regs
  let reg t k = t.regs.(k)

  let find t r =
    if r.id < Array.length t.index then t.index.(r.id)
    else match Tbl.find_opt t.sparse r with Some k -> k | None -> -1
end
