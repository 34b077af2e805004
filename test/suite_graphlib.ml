open Testlib

let digraph_of edges =
  let g = Graphlib.Digraph.create () in
  List.iter (fun (a, b) -> Graphlib.Digraph.add_edge g ~src:a ~dst:b ()) edges;
  g

(* Random small edge lists for property tests. *)
let gen_edges =
  QCheck2.Gen.(
    list_size (int_range 0 40) (pair (int_range 0 9) (int_range 0 9)))

let digraph_tests =
  [
    case "nodes-sorted-unique" (fun () ->
        let g = digraph_of [ (3, 1); (1, 2); (3, 2) ] in
        check Alcotest.(list int) "nodes" [ 1; 2; 3 ] (Graphlib.Digraph.nodes g));
    case "succs-preds-symmetry" (fun () ->
        let g = digraph_of [ (1, 2); (1, 3) ] in
        check Alcotest.int "out" 2 (Graphlib.Digraph.out_degree g 1);
        check Alcotest.int "in" 1 (Graphlib.Digraph.in_degree g 2));
    case "parallel-edges-kept" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 "a";
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 "b";
        check Alcotest.int "2 edges" 2 (Graphlib.Digraph.edge_count g));
    case "transpose-reverses" (fun () ->
        let g = digraph_of [ (1, 2) ] in
        let t = Graphlib.Digraph.transpose g in
        check Alcotest.int "2->1" 1 (Graphlib.Digraph.out_degree t 2);
        check Alcotest.int "1 has none" 0 (Graphlib.Digraph.out_degree t 1));
    case "map-labels" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 10;
        let h = Graphlib.Digraph.map_labels string_of_int g in
        check Alcotest.(list string) "label" [ "10" ]
          (List.map (fun (e : _ Graphlib.Digraph.edge) -> e.label) (Graphlib.Digraph.edges h)));
    qcheck "transpose-involution" gen_edges (fun edges ->
        let g = digraph_of edges in
        let tt = Graphlib.Digraph.transpose (Graphlib.Digraph.transpose g) in
        Graphlib.Digraph.nodes g = Graphlib.Digraph.nodes tt
        && Graphlib.Digraph.edge_count g = Graphlib.Digraph.edge_count tt);
  ]

(* Brute-force SCC: mutual reachability closure. *)
let brute_scc g =
  let nodes = Graphlib.Digraph.nodes g in
  let reach = Hashtbl.create 16 in
  let rec dfs src v =
    if not (Hashtbl.mem reach (src, v)) then begin
      Hashtbl.replace reach (src, v) ();
      List.iter (fun (e : _ Graphlib.Digraph.edge) -> dfs src e.dst) (Graphlib.Digraph.succs g v)
    end
  in
  List.iter (fun n -> dfs n n) nodes;
  let same a b = Hashtbl.mem reach (a, b) && Hashtbl.mem reach (b, a) in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun n ->
      if Hashtbl.mem seen n then None
      else begin
        let comp = List.filter (same n) nodes in
        List.iter (fun m -> Hashtbl.replace seen m ()) comp;
        Some (List.sort compare comp)
      end)
    nodes

let normalize comps = List.sort compare (List.map (List.sort compare) comps)

let scc_tests =
  [
    case "single-cycle" (fun () ->
        let g = digraph_of [ (1, 2); (2, 3); (3, 1) ] in
        check Alcotest.(list (list int)) "one comp" [ [ 1; 2; 3 ] ] (Graphlib.Scc.tarjan g));
    case "dag-all-singletons" (fun () ->
        let g = digraph_of [ (1, 2); (2, 3) ] in
        check Alcotest.int "3 comps" 3 (List.length (Graphlib.Scc.tarjan g)));
    case "nontrivial-needs-cycle" (fun () ->
        let g = digraph_of [ (1, 2); (2, 1); (3, 4) ] in
        check Alcotest.(list (list int)) "only 1,2" [ [ 1; 2 ] ] (Graphlib.Scc.nontrivial g));
    case "self-edge-is-nontrivial" (fun () ->
        let g = digraph_of [ (1, 1); (2, 3) ] in
        check Alcotest.(list (list int)) "1 alone" [ [ 1 ] ] (Graphlib.Scc.nontrivial g));
    case "condensation-is-dag" (fun () ->
        let g = digraph_of [ (1, 2); (2, 1); (2, 3); (3, 4); (4, 3) ] in
        let _, dag = Graphlib.Scc.condensation g in
        check Alcotest.bool "dag" true (Graphlib.Topo.is_dag dag);
        check Alcotest.int "2 comps" 2 (Graphlib.Digraph.node_count dag));
    qcheck ~count:200 "tarjan-matches-brute-force" gen_edges (fun edges ->
        let g = digraph_of edges in
        normalize (Graphlib.Scc.tarjan g) = normalize (brute_scc g));
  ]

let topo_tests =
  [
    case "sort-respects-edges" (fun () ->
        let g = digraph_of [ (3, 1); (1, 2) ] in
        match Graphlib.Topo.sort g with
        | None -> Alcotest.fail "expected order"
        | Some order ->
            let pos n = Option.get (List.find_index (Int.equal n) order) in
            check Alcotest.bool "3<1" true (pos 3 < pos 1);
            check Alcotest.bool "1<2" true (pos 1 < pos 2));
    case "cycle-returns-none" (fun () ->
        check Alcotest.bool "none" true (Graphlib.Topo.sort (digraph_of [ (1, 2); (2, 1) ]) = None));
    case "longest-path" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 5;
        Graphlib.Digraph.add_edge g ~src:2 ~dst:3 7;
        Graphlib.Digraph.add_edge g ~src:1 ~dst:3 2;
        let d = Graphlib.Topo.longest_paths ~weight:(fun e -> e.Graphlib.Digraph.label) g in
        check Alcotest.int "node3" 12 (Hashtbl.find d 3));
    case "critical-path-empty" (fun () ->
        check Alcotest.int "0" 0
          (Graphlib.Topo.critical_path ~weight:(fun _ -> 1) (Graphlib.Digraph.create ())));
    qcheck "sort-none-iff-cycle-via-scc" gen_edges (fun edges ->
        let g = digraph_of edges in
        let has_cycle = Graphlib.Scc.nontrivial g <> [] in
        (Graphlib.Topo.sort g = None) = has_cycle);
  ]

let cycles_tests =
  [
    case "positive-cycle-detected" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 1;
        Graphlib.Digraph.add_edge g ~src:2 ~dst:1 1;
        check Alcotest.bool "positive" true
          (Graphlib.Cycles.has_positive_cycle ~weight:(fun e -> e.Graphlib.Digraph.label) g));
    case "nonpositive-cycle-ok" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 3;
        Graphlib.Digraph.add_edge g ~src:2 ~dst:1 (-3);
        check Alcotest.bool "zero cycle fine" false
          (Graphlib.Cycles.has_positive_cycle ~weight:(fun e -> e.Graphlib.Digraph.label) g));
    case "longest-distances" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:2 4;
        Graphlib.Digraph.add_edge g ~src:2 ~dst:3 (-1);
        match Graphlib.Cycles.longest_distances ~weight:(fun e -> e.Graphlib.Digraph.label)
                ~source:1 g
        with
        | None -> Alcotest.fail "no positive cycle expected"
        | Some d ->
            check Alcotest.int "d3" 3 (Hashtbl.find d 3));
    case "longest-distances-positive-cycle-none" (fun () ->
        let g = Graphlib.Digraph.create () in
        Graphlib.Digraph.add_edge g ~src:1 ~dst:1 2;
        check Alcotest.bool "None" true
          (Graphlib.Cycles.longest_distances ~weight:(fun e -> e.Graphlib.Digraph.label)
             ~source:1 g
          = None));
  ]

let ungraph_tests =
  [
    case "edge-weights-accumulate" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Graphlib.Ungraph.add_edge_weight g 1 2 1.5;
        Graphlib.Ungraph.add_edge_weight g 2 1 2.0;
        check (Alcotest.float 1e-9) "sum" 3.5 (Graphlib.Ungraph.edge_weight g 1 2);
        check (Alcotest.float 1e-9) "symmetric" 3.5 (Graphlib.Ungraph.edge_weight g 2 1));
    case "node-weights-accumulate" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Graphlib.Ungraph.add_node_weight g 1 1.0;
        Graphlib.Ungraph.add_node_weight g 1 2.0;
        check (Alcotest.float 1e-9) "sum" 3.0 (Graphlib.Ungraph.node_weight g 1));
    case "self-edge-rejected" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Alcotest.check_raises "self" (Invalid_argument "Ungraph.add_edge_weight: self edge")
          (fun () -> Graphlib.Ungraph.add_edge_weight g 1 1 1.0));
    case "components" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Graphlib.Ungraph.add_edge_weight g 1 2 1.0;
        Graphlib.Ungraph.add_edge_weight g 3 4 1.0;
        Graphlib.Ungraph.add_node g 5;
        check Alcotest.(list (list int)) "comps" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
          (Graphlib.Ungraph.components g));
    case "edges-listed-once" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Graphlib.Ungraph.add_edge_weight g 2 1 1.0;
        check Alcotest.int "one" 1 (List.length (Graphlib.Ungraph.edges g));
        check Alcotest.int "count" 1 (Graphlib.Ungraph.edge_count g));
    case "neighbors-sorted" (fun () ->
        let g = Graphlib.Ungraph.create () in
        Graphlib.Ungraph.add_edge_weight g 1 5 1.0;
        Graphlib.Ungraph.add_edge_weight g 1 3 1.0;
        check Alcotest.(list int) "sorted" [ 3; 5 ]
          (List.map fst (Graphlib.Ungraph.neighbors g 1)));
    qcheck "components-partition-nodes"
      QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 9) (int_range 0 9)))
      (fun edges ->
        let g = Graphlib.Ungraph.create () in
        List.iter (fun (a, b) -> if a <> b then Graphlib.Ungraph.add_edge_weight g a b 1.0) edges;
        let all = List.concat (Graphlib.Ungraph.components g) in
        List.sort compare all = Graphlib.Ungraph.nodes g);
  ]

(* [Graphlib.Scc] over compressed rows against the verbatim table-based
   Tarjan ([Testlib.Scc_ref]): the same components in the same order,
   the same non-trivial ones, and the same condensation ([comp_of] is
   now indexed by a node's rank in [Digraph.nodes] rather than by its
   id). Returns the first difference. *)
let scc_against_ref g =
  let nodes = Graphlib.Digraph.nodes g in
  let comp_of, dag = Graphlib.Scc.condensation g in
  let comp_of', dag' = Scc_ref.condensation g in
  if Graphlib.Scc.tarjan g <> Scc_ref.tarjan g then Some "tarjan"
  else if Graphlib.Scc.nontrivial g <> Scc_ref.nontrivial g then Some "nontrivial"
  else if Array.length comp_of <> List.length nodes then Some "comp_of length"
  else if List.exists2 (fun i v -> comp_of.(i) <> comp_of'.(v)) (List.init (List.length nodes) Fun.id) nodes
  then Some "comp_of"
  else if Graphlib.Digraph.nodes dag <> Graphlib.Digraph.nodes dag' then Some "dag nodes"
  else if Graphlib.Digraph.edges dag <> Graphlib.Digraph.edges dag' then Some "dag edges"
  else None

(* Up to 30 nodes numbered [3 + stride × rank] (sparse for the larger
   strides), every one added (so some are isolated), and random edges
   between them, self-loops and duplicates included. *)
let gen_sparse_digraph =
  QCheck2.Gen.(
    triple (int_range 0 30) (oneofl [ 1; 7; 1009 ])
      (list_size (int_range 0 60) (pair (int_range 0 29) (int_range 0 29))))

let sparse_digraph (n, stride, edges) =
  let g = Graphlib.Digraph.create () in
  let id i = 3 + (stride * i) in
  for i = 0 to n - 1 do
    Graphlib.Digraph.add_node g (id i)
  done;
  if n > 0 then
    List.iter
      (fun (a, b) -> Graphlib.Digraph.add_edge g ~src:(id (a mod n)) ~dst:(id (b mod n)) ())
      edges;
  g

(* The dense entry point RecMII calls, on a DDG's own rows, against the
   reference over the DDG's derived Digraph. *)
let ddg_scc_against_ref name (ddg : Ddg.Graph.t) =
  let g = Ddg.Graph.graph ddg in
  let ids = List.map (List.map (fun v -> ddg.ids.(v))) in
  (match scc_against_ref g with Some what -> Alcotest.failf "%s: %s differs" name what | None -> ());
  check Alcotest.(list (list int)) (name ^ " components") (Scc_ref.tarjan g)
    (ids (Graphlib.Scc.components ~off:ddg.succ_off ~succ:ddg.succ_node));
  check Alcotest.(list (list int)) (name ^ " non-trivial components") (Scc_ref.nontrivial g)
    (ids (Graphlib.Scc.nontrivial_components ~off:ddg.succ_off ~succ:ddg.succ_node))

let scc_ref_tests =
  [
    qcheck ~count:300 "random-sparse-digraphs" gen_sparse_digraph (fun spec ->
        scc_against_ref (sparse_digraph spec) = None);
    slow_case "suite-source-and-rewritten-ddgs" (fun () ->
        List.iter
          (fun (loop, bodies) ->
            let name = Ir.Loop.name loop in
            ddg_scc_against_ref name (Ddg.Graph.of_loop loop);
            List.iter
              (fun ((cfg : Core.Experiment.config), body) ->
                ddg_scc_against_ref (name ^ " on " ^ cfg.label)
                  (Ddg.Graph.of_loop ~latency:cfg.machine.latency (rewritten_exn body)))
              bodies)
          (Lazy.force corpus));
  ]

let suite =
  [
    ("graphlib.digraph", digraph_tests);
    ("graphlib.scc", scc_tests);
    ("graphlib.scc-ref", scc_ref_tests);
    ("graphlib.topo", topo_tests);
    ("graphlib.cycles", cycles_tests);
    ("graphlib.ungraph", ungraph_tests);
  ]
