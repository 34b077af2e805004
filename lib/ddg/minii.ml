let div_ceil a b = (a + b - 1) / b

let res_mii ~width n_ops =
  if width <= 0 then invalid_arg "Minii.res_mii: width must be positive";
  max 1 (div_ceil (max n_ops 0) width)

(* Runs at every node of the exact search, so the per-cluster maximum is
   taken in one allocation-free loop. *)
let res_mii_clustered ~machine ~ops_per_cluster ~copies_per_cluster =
  let m : Mach.Machine.t = machine in
  if Array.length ops_per_cluster <> m.clusters || Array.length copies_per_cluster <> m.clusters
  then invalid_arg "Minii.res_mii_clustered: array length mismatch";
  let bound = ref 1 and total_copies = ref 0 in
  for c = 0 to m.clusters - 1 do
    let ops = ops_per_cluster.(c) and copies = copies_per_cluster.(c) in
    total_copies := !total_copies + copies;
    let per_cluster =
      match m.copy_model with
      | Mach.Machine.Embedded -> div_ceil (ops + copies) m.fus_per_cluster
      | Mach.Machine.Copy_unit ->
          let port_bound =
            if copies = 0 then 1
            else if m.copy_ports = 0 then max_int / 2
            else div_ceil copies m.copy_ports
          in
          Int.max (div_ceil ops m.fus_per_cluster) port_bound
    in
    bound := Int.max !bound per_cluster
  done;
  match m.copy_model with
  | Mach.Machine.Embedded -> !bound
  | Mach.Machine.Copy_unit ->
      let bus_bound =
        if !total_copies = 0 then 1
        else if m.busses = 0 then max_int / 2
        else div_ceil !total_copies m.busses
      in
      Int.max !bound bus_bound

let upper_bound (ddg : Graph.t) = ddg.upper_bound

(* One SCC's internal edges as int arrays over dense local indices, in
   the reverse of their row order. [local] maps the SCC's nodes to
   those indices and every other node to -1. [hi] is 1 + the sum over
   its nodes of their largest intra-SCC out-edge latency: every simple
   circuit stays below it. *)
type scc = { n : int; src : int array; dst : int array; lat : int array; dist : int array; hi : int }

let scc_of (g : Graph.t) ~local comp =
  let m = ref 0 and hi = ref 1 in
  List.iter
    (fun v ->
      let max_lat = ref 0 in
      for k = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
        if local.(g.succ_node.(k)) >= 0 then begin
          max_lat := max !max_lat g.succ_lat.(k);
          incr m
        end
      done;
      hi := !hi + !max_lat)
    comp;
  let m = !m in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let lat = Array.make m 0 and dist = Array.make m 0 in
  let j = ref m in
  List.iter
    (fun v ->
      for k = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
        let w = local.(g.succ_node.(k)) in
        if w >= 0 then begin
          decr j;
          src.(!j) <- local.(v);
          dst.(!j) <- w;
          lat.(!j) <- g.succ_lat.(k);
          dist.(!j) <- g.succ_dist.(k)
        end
      done)
    comp;
  { n = List.length comp; src; dst; lat; dist; hi = !hi }

(* Longest-path Bellman-Ford under weight [lat - ii*dist], every node
   starting at 0: a positive cycle exists iff each of the first [n]
   rounds still relaxes some edge. *)
let feasible s ii =
  let d = Array.make s.n 0 in
  let relax () =
    let changed = ref false in
    for k = 0 to Array.length s.src - 1 do
      let c = d.(s.src.(k)) + s.lat.(k) - (ii * s.dist.(k)) in
      if c > d.(s.dst.(k)) then begin
        d.(s.dst.(k)) <- c;
        changed := true
      end
    done;
    !changed
  in
  let rec run i = i > s.n || (relax () && run (i + 1)) in
  not (run 1)

let rec_mii ddg =
  (* Every circuit lives inside one SCC, and the whole body is feasible at
     II iff each SCC is. Within an SCC, cycle weight Σlat − II·Σdist is
     strictly decreasing in II for any circuit (every circuit carries
     distance >= 1 in a well-formed body), so feasibility is monotone and
     binary search applies; the running maximum over the SCCs already
     searched is each search's lower bound. An SCC infeasible at its own
     [hi] has a zero-distance circuit and no feasible II at all: the
     answer is then [upper_bound], as for a search over the whole graph. *)
  let top = upper_bound ddg in
  let g : Graph.t = ddg in
  let local = Array.make (Graph.size g) (-1) in
  let rec search s lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if feasible s mid then search s lo mid else search s (mid + 1) hi
  in
  let per_scc lo comp =
    List.iteri (fun i v -> local.(v) <- i) comp;
    let s = scc_of g ~local comp in
    List.iter (fun v -> local.(v) <- -1) comp;
    let hi = max lo s.hi in
    let r = search s lo (hi + 1) in
    if r > hi then top else r
  in
  min top
    (List.fold_left per_scc 1
       (Graphlib.Scc.nontrivial_components ~off:g.succ_off ~succ:g.succ_node))

let min_ii ~width ddg = max (res_mii ~width (Graph.size ddg)) (rec_mii ddg)
