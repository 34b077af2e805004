type mismatch =
  | Missing_in_ddg
  | Distance_exceeds
  | Extra_in_ddg
  | Distance_below
  | Latency_differs

type finding = {
  mismatch : mismatch;
  src : int;
  dst : int;
  kind : Ddg.Dep.kind;
  analysis_distance : int option;
  ddg_distance : int option;
  analysis_latency : int option;
  ddg_latency : int option;
}

type report = {
  findings : finding list;
  analysis_edges : int;
  ddg_edges : int;
  matched : int;
}

(* The DDG's edges as int keys, five ints apiece (src, dst, kind rank,
   distance, latency), and their order by (src, dst, kind rank,
   distance), ties kept in row order: the first edge of each key's run
   is the one with the smallest distance that comes first in its
   source's row. The sort is by insertion, which is stable and, as the
   rows are read source by source in ascending id order, moves each
   edge only within its source's group. *)
let ddg_keys (ddg : Ddg.Graph.t) =
  let d = Array.make (5 * Ddg.Graph.edge_count ddg) 0 in
  let m = ref 0 in
  for v = 0 to Ddg.Graph.size ddg - 1 do
    for k = ddg.succ_off.(v) to ddg.succ_off.(v + 1) - 1 do
      let o = 5 * !m in
      d.(o) <- ddg.ids.(v);
      d.(o + 1) <- ddg.ids.(ddg.succ_node.(k));
      d.(o + 2) <- ddg.succ_kind.(k);
      d.(o + 3) <- ddg.succ_dist.(k);
      d.(o + 4) <- ddg.succ_lat.(k);
      incr m
    done
  done;
  let below x y =
    let x = 5 * x and y = 5 * y in
    d.(x) < d.(y)
    || d.(x) = d.(y)
       && (d.(x + 1) < d.(y + 1)
          || d.(x + 1) = d.(y + 1)
             && (d.(x + 2) < d.(y + 2) || (d.(x + 2) = d.(y + 2) && d.(x + 3) < d.(y + 3))))
  in
  let order = Array.init !m Fun.id in
  for i = 1 to !m - 1 do
    let e = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && below e order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- e
  done;
  (d, order)

(* Both sides keep the smallest distance per (src, dst, kind) key: that
   is the binding constraint, and the DDG can legitimately carry
   duplicate identical edges (duplicated source operands). The analysis
   edges are sorted by key then distance, so a key's first edge holds
   its smallest distance; the DDG's are sorted likewise. One merge of
   the two key orders yields each key's finding, and each key has at
   most one, so the findings come out in key order. *)
let run (dep : Depan.t) ddg =
  let d, order = ddg_keys ddg in
  let na = dep.Depan.count and nd = Array.length order in
  let findings = ref [] and matched = ref 0 in
  let analysis_edges = ref 0 and ddg_edges = ref 0 in
  let add mismatch src dst rank ?ad ?dd ?al ?dl () =
    findings :=
      {
        mismatch;
        src;
        dst;
        kind = Depan.kind_of_rank rank;
        analysis_distance = ad;
        ddg_distance = dd;
        analysis_latency = al;
        ddg_latency = dl;
      }
      :: !findings
  in
  (* The index past the run of analysis edges sharing edge [a]'s key,
     and likewise for the DDG edge at [order.(g)]. *)
  let same_a a a' =
    dep.Depan.srcs.(a') = dep.Depan.srcs.(a)
    && dep.Depan.dsts.(a') = dep.Depan.dsts.(a)
    && dep.Depan.ranks.(a') = dep.Depan.ranks.(a)
  in
  let rec next_a a a' = if a' < na && same_a a a' then next_a a (a' + 1) else a' in
  let same_g x y = d.(x) = d.(y) && d.(x + 1) = d.(y + 1) && d.(x + 2) = d.(y + 2) in
  let rec next_g g g' =
    if g' < nd && same_g (5 * order.(g)) (5 * order.(g')) then next_g g (g' + 1) else g'
  in
  let rec merge a g =
    if a < na || g < nd then begin
      let x = if g < nd then 5 * order.(g) else 0 in
      let c =
        if a >= na then 1
        else if g >= nd then -1
        else
          let c = Int.compare dep.Depan.srcs.(a) d.(x) in
          if c <> 0 then c
          else
            let c = Int.compare dep.Depan.dsts.(a) d.(x + 1) in
            if c <> 0 then c else Int.compare dep.Depan.ranks.(a) d.(x + 2)
      in
      if c <= 0 then incr analysis_edges;
      if c >= 0 then incr ddg_edges;
      if c > 0 then begin
        add Extra_in_ddg d.(x) d.(x + 1) d.(x + 2) ~dd:d.(x + 3) ~dl:d.(x + 4) ();
        merge a (next_g g (g + 1))
      end
      else begin
        let src = dep.Depan.srcs.(a) and dst = dep.Depan.dsts.(a) and rank = dep.Depan.ranks.(a) in
        let ad = dep.Depan.distances.(a) and al = dep.Depan.latencies.(a) in
        if c < 0 then begin
          add Missing_in_ddg src dst rank ~ad ~al ();
          merge (next_a a (a + 1)) g
        end
        else begin
          let dd = d.(x + 3) and dl = d.(x + 4) in
          if dd > ad then add Distance_exceeds src dst rank ~ad ~dd ~al ~dl ()
          else if dd < ad then add Distance_below src dst rank ~ad ~dd ~al ~dl ()
          else begin
            incr matched;
            if dl <> al then add Latency_differs src dst rank ~ad ~dd ~al ~dl ()
          end;
          merge (next_a a (a + 1)) (next_g g (g + 1))
        end
      end
    end
  in
  merge 0 0;
  {
    findings = List.rev !findings;
    analysis_edges = !analysis_edges;
    ddg_edges = !ddg_edges;
    matched = !matched;
  }

let is_error f =
  match f.mismatch with
  | Missing_in_ddg | Distance_exceeds -> true
  | Extra_in_ddg | Distance_below | Latency_differs -> false

let has_errors r = List.exists is_error r.findings

let opt = function None -> "-" | Some v -> string_of_int v

let describe f =
  let k = Ddg.Dep.kind_to_string f.kind in
  match f.mismatch with
  | Missing_in_ddg ->
      Printf.sprintf
        "op%d -> op%d %s (dist %s) required by analysis but absent from ddg"
        f.src f.dst k (opt f.analysis_distance)
  | Distance_exceeds ->
      Printf.sprintf
        "op%d -> op%d %s: ddg distance %s exceeds analysis distance %s (under-constrained)"
        f.src f.dst k (opt f.ddg_distance) (opt f.analysis_distance)
  | Extra_in_ddg ->
      Printf.sprintf
        "op%d -> op%d %s (dist %s) in ddg but not justified by analysis"
        f.src f.dst k (opt f.ddg_distance)
  | Distance_below ->
      Printf.sprintf
        "op%d -> op%d %s: ddg distance %s below analysis distance %s (over-conservative)"
        f.src f.dst k (opt f.ddg_distance) (opt f.analysis_distance)
  | Latency_differs ->
      Printf.sprintf "op%d -> op%d %s: ddg latency %s, analysis latency %s"
        f.src f.dst k (opt f.ddg_latency) (opt f.analysis_latency)
