type t = {
  ug : Graphlib.Ungraph.t;
  regs : (int, Ir.Vreg.t) Hashtbl.t;
  pins : (int, int) Hashtbl.t;
}

let infinitely_negative = -1e18

let create () = { ug = Graphlib.Ungraph.create (); regs = Hashtbl.create 64; pins = Hashtbl.create 8 }

let add_register t r =
  let id = Ir.Vreg.id r in
  if not (Graphlib.Ungraph.mem_node t.ug id) then begin
    Hashtbl.replace t.regs id r;
    Graphlib.Ungraph.add_node t.ug id
  end

let add_node_weight t r w =
  add_register t r;
  Graphlib.Ungraph.add_node_weight t.ug (Ir.Vreg.id r) w

type node = int

let node t r =
  add_register t r;
  Graphlib.Ungraph.slot t.ug (Ir.Vreg.id r)

let add_node_weight_at t n w = Graphlib.Ungraph.add_node_weight_at t.ug n w
let add_edge_weight_at t a b w = Graphlib.Ungraph.add_edge_weight_at t.ug a b w

let add_edge_weight t a b w =
  if not (Ir.Vreg.equal a b) then begin
    add_register t a;
    add_register t b;
    Graphlib.Ungraph.add_edge_weight t.ug (Ir.Vreg.id a) (Ir.Vreg.id b) w
  end

let pin t r bank =
  add_register t r;
  match Hashtbl.find_opt t.pins (Ir.Vreg.id r) with
  | Some b when b <> bank ->
      invalid_arg
        (Printf.sprintf "Rcg.pin: %s already pinned to bank %d" (Ir.Vreg.to_string r) b)
  | Some _ | None -> Hashtbl.replace t.pins (Ir.Vreg.id r) bank

let pinned t r = Hashtbl.find_opt t.pins (Ir.Vreg.id r)

let keep_apart t a b =
  if Ir.Vreg.equal a b then invalid_arg "Rcg.keep_apart: same register";
  add_edge_weight t a b infinitely_negative

let reg t id = Hashtbl.find t.regs id

let registers t = List.map (reg t) (Graphlib.Ungraph.nodes t.ug)
let node_count t = Graphlib.Ungraph.node_count t.ug
let edge_count t = Graphlib.Ungraph.edge_count t.ug
let node_weight t r = Graphlib.Ungraph.node_weight t.ug (Ir.Vreg.id r)
let edge_weight t a b = Graphlib.Ungraph.edge_weight t.ug (Ir.Vreg.id a) (Ir.Vreg.id b)

let neighbors t r =
  List.map (fun (id, w) -> (reg t id, w)) (Graphlib.Ungraph.neighbors t.ug (Ir.Vreg.id r))

let components t =
  List.map (List.map (reg t)) (Graphlib.Ungraph.components t.ug)

let register t i = reg t (Graphlib.Ungraph.node_of_rank t.ug i)
let iter_neighbors t i f = Graphlib.Ungraph.iter_row t.ug i f

(* Summed over the edges (a, b), a < b, in ascending order: the float
   sum depends on it. *)
let mean_positive_edge_weight t =
  let sum = ref 0.0 and count = ref 0 in
  for i = 0 to node_count t - 1 do
    iter_neighbors t i (fun j w ->
        if j > i && w > 0.0 then begin
          sum := !sum +. w;
          incr count
        end)
  done;
  if !count = 0 then 1.0 else !sum /. float_of_int !count

let placement_order t =
  let n = node_count t in
  let weight =
    Array.init n (fun i ->
        Graphlib.Ungraph.node_weight t.ug (Graphlib.Ungraph.node_of_rank t.ug i))
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare weight.(b) weight.(a) in
      if c <> 0 then c else Int.compare a b)
    order;
  order

let by_weight_desc t = List.map (register t) (Array.to_list (placement_order t))

let pp ppf t =
  Format.fprintf ppf "@[<v>rcg (%d registers, %d edges):@," (node_count t) (edge_count t);
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s (w=%.2f):" (Ir.Vreg.to_string r) (node_weight t r);
      List.iter
        (fun (m, w) -> Format.fprintf ppf " %s:%.2f" (Ir.Vreg.to_string m) w)
        (neighbors t r);
      Format.fprintf ppf "@,")
    (registers t);
  Format.fprintf ppf "@]"

let bank_colors = [| "lightblue"; "lightgreen"; "lightsalmon"; "khaki"; "plum"; "lightcyan";
                     "wheat"; "mistyrose" |]

let to_dot ?(assignment = fun _ -> None) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph rcg {\n  node [shape=ellipse, style=filled];\n";
  List.iter
    (fun r ->
      let color =
        match assignment r with
        | Some b -> bank_colors.(b mod Array.length bank_colors)
        | None -> "white"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\\nw=%.1f\", fillcolor=%s];\n" (Ir.Vreg.id r)
           (Ir.Vreg.to_string r) (node_weight t r) color))
    (registers t);
  List.iter
    (fun r ->
      List.iter
        (fun (m, w) ->
          if Ir.Vreg.compare r m < 0 then
            Buffer.add_string buf
              (Printf.sprintf "  %d -- %d [label=\"%.1f\"%s];\n" (Ir.Vreg.id r) (Ir.Vreg.id m)
                 w
                 (if w < 0.0 then ", style=dashed" else "")))
        (neighbors t r))
    (registers t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
