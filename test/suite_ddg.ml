open Testlib

let f = Mach.Rclass.Float
let i = Mach.Rclass.Int

(* r1 = load x[i]; r2 = r1*r1; store y[i], r2 *)
let simple_loop () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.load b f (Ir.Addr.element "x") in
  let sq = Ir.Builder.binop b Mach.Opcode.Mul f x x in
  Ir.Builder.store b f (Ir.Addr.element "y") sq;
  Ir.Builder.loop b ~name:"simple" ()

(* s = s + load x[i]: one-op recurrence plus a load *)
let reduction_loop () =
  let b = Ir.Builder.create () in
  let s = Ir.Builder.fresh ~name:"s" b f in
  let x = Ir.Builder.load b f (Ir.Addr.element "x") in
  Ir.Builder.define b Mach.Opcode.Add f ~into:s [ s; x ];
  Ir.Builder.loop b ~name:"red" ~live_out:[ s ] ()

let edge_between ddg ~src ~dst =
  List.filter_map
    (fun (d, dep) -> if d = dst then Some dep else None)
    (Ddg.Graph.succs ddg src)

let has_edge ddg ~src ~dst ~kind ~distance =
  List.exists
    (fun dep -> Ddg.Dep.kind dep = kind && Ddg.Dep.distance dep = distance)
    (edge_between ddg ~src ~dst)

let memdep_tests =
  [
    case "different-bases-independent" (fun () ->
        check Alcotest.bool "nodep" true
          (Ddg.Memdep.test ~earlier:(Ir.Addr.element "x") ~later:(Ir.Addr.element "y")
          = Ddg.Memdep.No_dep));
    case "same-element-distance-0" (fun () ->
        check Alcotest.bool "d0" true
          (Ddg.Memdep.test ~earlier:(Ir.Addr.element "x") ~later:(Ir.Addr.element "x")
          = Ddg.Memdep.Dep_at 0));
    case "offset-one-back-distance-1" (fun () ->
        (* earlier writes x[i+1], later reads x[i] -> next iteration reads it *)
        check Alcotest.bool "d1" true
          (Ddg.Memdep.test ~earlier:(Ir.Addr.element ~offset:1 "x")
             ~later:(Ir.Addr.element "x")
          = Ddg.Memdep.Dep_at 1));
    case "forward-offset-no-dep" (fun () ->
        (* earlier writes x[i], later reads x[i+1]: later iterations read
           even later elements, never the written one *)
        check Alcotest.bool "nodep" true
          (Ddg.Memdep.test ~earlier:(Ir.Addr.element "x")
             ~later:(Ir.Addr.element ~offset:1 "x")
          = Ddg.Memdep.No_dep));
    case "non-integral-distance-no-dep" (fun () ->
        check Alcotest.bool "nodep" true
          (Ddg.Memdep.test
             ~earlier:(Ir.Addr.make ~offset:1 ~stride:2 "x")
             ~later:(Ir.Addr.make ~offset:0 ~stride:2 "x")
          = Ddg.Memdep.No_dep));
    case "stride-mismatch-conservative" (fun () ->
        check Alcotest.bool "depall" true
          (Ddg.Memdep.test
             ~earlier:(Ir.Addr.make ~stride:2 "x")
             ~later:(Ir.Addr.make ~stride:3 "x")
          = Ddg.Memdep.Dep_all));
    case "scalar-conflicts-always" (fun () ->
        check Alcotest.bool "depall" true
          (Ddg.Memdep.test ~earlier:(Ir.Addr.scalar "s") ~later:(Ir.Addr.scalar "s")
          = Ddg.Memdep.Dep_all));
    case "two-loads-no-ordering" (fun () ->
        let b = Ir.Builder.create () in
        let x1 = Ir.Builder.load b f (Ir.Addr.element "x") in
        let x2 = Ir.Builder.load b f (Ir.Addr.element "x") in
        let s = Ir.Builder.binop b Mach.Opcode.Add f x1 x2 in
        Ir.Builder.store b f (Ir.Addr.element "y") s;
        let loop = Ir.Builder.loop b ~name:"t" () in
        let ddg = Ddg.Graph.of_loop loop in
        check Alcotest.int "no load-load edge" 0
          (List.length (edge_between ddg ~src:0 ~dst:1)));
  ]

let build_tests =
  [
    case "flow-edge-with-latency" (fun () ->
        let ddg = Ddg.Graph.of_loop (simple_loop ()) in
        (* load (op 0) -> mul (op 1), flow, latency 2 (float load) *)
        match edge_between ddg ~src:0 ~dst:1 with
        | [ dep ] ->
            check Alcotest.bool "flow" true (Ddg.Dep.kind dep = Ddg.Dep.Flow);
            check Alcotest.int "lat" 2 (Ddg.Dep.latency dep);
            check Alcotest.int "dist" 0 (Ddg.Dep.distance dep)
        | deps -> Alcotest.failf "expected 1 edge, got %d" (List.length deps));
    case "reduction-self-flow-distance-1" (fun () ->
        let ddg = Ddg.Graph.of_loop (reduction_loop ()) in
        (* add (op 1) defines and uses s: flow self edge at distance 1 *)
        check Alcotest.bool "self flow d1" true
          (has_edge ddg ~src:1 ~dst:1 ~kind:Ddg.Dep.Flow ~distance:1));
    case "store-load-same-element" (fun () ->
        (* store x[i] then (next iteration) load x[i-1]... craft:
           store to x[i], load from x[i-1] textually before the store *)
        let b = Ir.Builder.create () in
        let prev = Ir.Builder.load b f (Ir.Addr.element ~offset:(-1) "x") in
        let v = Ir.Builder.unop b Mach.Opcode.Neg f prev in
        Ir.Builder.store b f (Ir.Addr.element "x") v;
        let loop = Ir.Builder.loop b ~name:"t" () in
        let ddg = Ddg.Graph.of_loop loop in
        (* store (op 2) -> load (op 0) mem-flow at distance 1 *)
        check Alcotest.bool "mem flow d1" true
          (has_edge ddg ~src:2 ~dst:0 ~kind:(Ddg.Dep.Mem Ddg.Dep.Mem_flow) ~distance:1));
    case "anti-edge-only-for-same-iteration-reads" (fun () ->
        (* op0 reads the carried value of r, op1 redefines r: under MVE
           the instances differ, so no anti edge *)
        let b = Ir.Builder.create () in
        let r = Ir.Builder.fresh b f in
        let y = Ir.Builder.unop b Mach.Opcode.Neg f r in
        Ir.Builder.define b Mach.Opcode.Abs f ~into:r [ y ];
        Ir.Builder.store b f (Ir.Addr.element "o") r;
        let loop = Ir.Builder.loop b ~name:"t" () in
        let ddg = Ddg.Graph.of_loop loop in
        check Alcotest.bool "no anti d0 for carried read" false
          (has_edge ddg ~src:0 ~dst:1 ~kind:Ddg.Dep.Anti ~distance:0);
        (* but a use of a same-iteration value IS ordered before a later
           redefinition *)
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.element "x") in (* op0 defines x *)
        let y = Ir.Builder.unop b Mach.Opcode.Neg f x in     (* op1 reads x (same iter) *)
        Ir.Builder.define b Mach.Opcode.Abs f ~into:x [ y ]; (* op2 redefines x *)
        Ir.Builder.store b f (Ir.Addr.element "o") x;
        let loop = Ir.Builder.loop b ~name:"t2" () in
        let ddg = Ddg.Graph.of_loop loop in
        check Alcotest.bool "anti d0 for same-iter read" true
          (has_edge ddg ~src:1 ~dst:2 ~kind:Ddg.Dep.Anti ~distance:0));
    case "no-carried-register-anti" (fun () ->
        (* MVE renames iteration instances, so the next iteration's def of
           x must NOT be serialized after this iteration's use *)
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.element "x") in
        let y = Ir.Builder.unop b Mach.Opcode.Neg f x in
        Ir.Builder.store b f (Ir.Addr.element "y") y;
        let loop = Ir.Builder.loop b ~name:"t" () in
        let ddg = Ddg.Graph.of_loop loop in
        check Alcotest.bool "no anti d1" false
          (has_edge ddg ~src:1 ~dst:0 ~kind:Ddg.Dep.Anti ~distance:1));
    case "invariants-produce-no-edges" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        let ddg = Ddg.Graph.of_loop loop in
        (* 'a' is invariant: no op defines it, so no flow edge carries it *)
        check Alcotest.bool "dag apart from memory" true (Ddg.Graph.size ddg = 5));
    case "of-block-has-no-carried-edges" (fun () ->
        let loop = reduction_loop () in
        let block = Ir.Block.make ~label:"b" (Ir.Loop.ops loop) in
        let ddg = Ddg.Graph.of_block block in
        Graphlib.Digraph.iter_edges
          (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
            check Alcotest.int "dist 0" 0 (Ddg.Dep.distance e.label))
          (Ddg.Graph.graph ddg));
    case "loop-independent-subgraph-is-dag" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            check Alcotest.bool
              (Ir.Loop.name loop ^ " dist0 dag")
              true
              (Graphlib.Topo.is_dag (Ddg.Graph.loop_independent ddg)))
          (sample_loops ()));
    qcheck ~count:60 "edges-well-formed" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ddg = Ddg.Graph.of_loop loop in
        Graphlib.Digraph.fold_edges
          (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) acc ->
            acc
            && Ddg.Dep.latency e.label >= 0
            && Ddg.Dep.distance e.label >= 0
            && (* distance-0 edges must point forward in body order except
                  nothing: ops are id-ordered in builder output *)
            (Ddg.Dep.distance e.label > 0 || e.src < e.dst || e.src = e.dst))
          (Ddg.Graph.graph ddg) true);
    case "critical-path-positive" (fun () ->
        let ddg = Ddg.Graph.of_loop (simple_loop ()) in
        (* load(2) -> mul(2) -> store(4): 8 cycles *)
        check Alcotest.int "cp" 8 (Ddg.Graph.critical_path_length ddg));
  ]

let minii_tests =
  [
    case "res-mii" (fun () ->
        check Alcotest.int "17/16" 2 (Ddg.Minii.res_mii ~width:16 17);
        check Alcotest.int "16/16" 1 (Ddg.Minii.res_mii ~width:16 16);
        check Alcotest.int "0 ops" 1 (Ddg.Minii.res_mii ~width:16 0));
    case "rec-mii-acyclic-is-1" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.vcopy ~unroll:1) in
        check Alcotest.int "1" 1 (Ddg.Minii.rec_mii ddg));
    case "rec-mii-reduction" (fun () ->
        (* s = s + x with float add latency 2: circuit lat 2 / dist 1 -> 2 *)
        let ddg = Ddg.Graph.of_loop (reduction_loop ()) in
        check Alcotest.int "2" 2 (Ddg.Minii.rec_mii ddg));
    case "rec-mii-int-reduction-is-1" (fun () ->
        let b = Ir.Builder.create () in
        let s = Ir.Builder.fresh b i in
        let x = Ir.Builder.load b i (Ir.Addr.element "x") in
        Ir.Builder.define b Mach.Opcode.Add i ~into:s [ s; x ];
        let loop = Ir.Builder.loop b ~name:"t" ~live_out:[ s ] () in
        check Alcotest.int "1" 1 (Ddg.Minii.rec_mii (Ddg.Graph.of_loop loop)));
    case "rec-mii-memory-distance-3" (fun () ->
        (* x[i] = a*x[i-3]: mem-flow store->load at distance 3; circuit is
           store(4) -> load + load(2) -> mul + mul(2) -> store over
           distance 3: ceil(8/3) = 3 *)
        let loop = Workload.Kernels.mem_rec3 ~unroll:1 in
        let ddg = Ddg.Graph.of_loop loop in
        check Alcotest.int "3" 3 (Ddg.Minii.rec_mii ddg));
    case "rec-mii-long-chain" (fun () ->
        (* x = (x*inv) + y: float mul 2 + float add 2 over distance 1 -> 4 *)
        let loop = Workload.Kernels.first_order_rec ~unroll:1 in
        check Alcotest.int "4" 4 (Ddg.Minii.rec_mii (Ddg.Graph.of_loop loop)));
    case "unrolling-recurrence-scales-recmii" (fun () ->
        (* unroll k chains k dependent updates per iteration *)
        let r1 = Ddg.Minii.rec_mii (Ddg.Graph.of_loop (Workload.Kernels.first_order_rec ~unroll:1)) in
        let r4 = Ddg.Minii.rec_mii (Ddg.Graph.of_loop (Workload.Kernels.first_order_rec ~unroll:4)) in
        check Alcotest.int "4x" (4 * r1) r4);
    case "clustered-res-mii-embedded" (fun () ->
        let mii =
          Ddg.Minii.res_mii_clustered ~machine:m4x4e ~ops_per_cluster:[| 4; 8; 2; 2 |]
            ~copies_per_cluster:[| 1; 0; 0; 0 |]
        in
        (* cluster 1: ceil(8/4) = 2 dominates; cluster 0: ceil(5/4)=2 *)
        check Alcotest.int "2" 2 mii);
    case "clustered-res-mii-copy-unit-ports" (fun () ->
        let mii =
          Ddg.Minii.res_mii_clustered ~machine:m4x4c ~ops_per_cluster:[| 2; 2; 2; 2 |]
            ~copies_per_cluster:[| 5; 0; 0; 0 |]
        in
        (* 5 copies through 2 ports -> ceil(5/2) = 3 *)
        check Alcotest.int "3" 3 mii);
    case "clustered-res-mii-copy-unit-busses" (fun () ->
        let mii =
          Ddg.Minii.res_mii_clustered ~machine:m4x4c ~ops_per_cluster:[| 1; 1; 1; 1 |]
            ~copies_per_cluster:[| 2; 2; 2; 2 |]
        in
        (* 8 copies over 4 busses -> 2 *)
        check Alcotest.int "2" 2 mii);
    qcheck ~count:60 "min-ii-bounds" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ddg = Ddg.Graph.of_loop loop in
        let mii = Ddg.Minii.min_ii ~width:16 ddg in
        mii >= 1
        && mii >= Ddg.Minii.res_mii ~width:16 (Ir.Loop.size loop)
        && mii <= Ddg.Minii.upper_bound ddg);
  ]

(* Reference RecMII: binary search over [1, upper_bound] with a
   positive-cycle test on the whole graph under weight
   [latency - II*distance]. *)
let rec_mii_reference ddg =
  let feasible ii =
    not
      (Graphlib.Cycles.has_positive_cycle
         ~weight:(fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
           Ddg.Dep.latency e.label - (ii * Ddg.Dep.distance e.label))
         (Ddg.Graph.graph ddg))
  in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if feasible mid then search lo mid else search (mid + 1) hi
  in
  search 1 (Ddg.Minii.upper_bound ddg)

let check_against_reference name ddg =
  check Alcotest.int name (rec_mii_reference ddg) (Ddg.Minii.rec_mii ddg)

let nontrivial_sccs ddg = List.length (Graphlib.Scc.nontrivial (Ddg.Graph.graph ddg))

(* x = x*a + y (float mul 2 + float add 2: RecMII 4) and s = s + z
   (float add 2: RecMII 2), emitted in either order. *)
let two_recurrences ~chain_first =
  let b = Ir.Builder.create () in
  let chain () =
    let x = Ir.Builder.fresh ~name:"x" b f in
    let a = Ir.Builder.load b f (Ir.Addr.scalar "a") in
    let y = Ir.Builder.load b f (Ir.Addr.element "y") in
    let t = Ir.Builder.binop b Mach.Opcode.Mul f x a in
    Ir.Builder.define b Mach.Opcode.Add f ~into:x [ t; y ];
    x
  in
  let reduction () =
    let s = Ir.Builder.fresh ~name:"s" b f in
    let z = Ir.Builder.load b f (Ir.Addr.element "z") in
    Ir.Builder.define b Mach.Opcode.Add f ~into:s [ s; z ];
    s
  in
  let live_out =
    if chain_first then
      let x = chain () in
      [ x; reduction () ]
    else
      let s = reduction () in
      [ chain (); s ]
  in
  Ir.Builder.loop b ~name:"two-rec" ~live_out ()

let oracle_tests =
  [
    case "two-disjoint-recurrences-take-the-max" (fun () ->
        List.iter
          (fun chain_first ->
            let ddg = Ddg.Graph.of_loop (two_recurrences ~chain_first) in
            check Alcotest.int "two SCCs" 2 (nontrivial_sccs ddg);
            check Alcotest.int "max" 4 (Ddg.Minii.rec_mii ddg);
            check_against_reference "reference" ddg)
          [ true; false ]);
    case "self-edge-only-scc" (fun () ->
        (* p = p * y with int mul latency 5: one node, one self-edge *)
        let b = Ir.Builder.create () in
        let p = Ir.Builder.fresh ~name:"p" b i in
        let y = Ir.Builder.load b i (Ir.Addr.element "y") in
        Ir.Builder.define b Mach.Opcode.Mul i ~into:p [ p; y ];
        let ddg = Ddg.Graph.of_loop (Ir.Builder.loop b ~name:"selfmul" ~live_out:[ p ] ()) in
        (match Graphlib.Scc.nontrivial (Ddg.Graph.graph ddg) with
        | [ [ _ ] ] -> ()
        | _ -> Alcotest.fail "expected a single one-node SCC");
        check Alcotest.int "5" 5 (Ddg.Minii.rec_mii ddg);
        check_against_reference "reference" ddg);
    case "acyclic-body-with-large-upper-bound-is-1" (fun () ->
        (* a chain of twelve int divides (latency 12 each), no recurrence *)
        let b = Ir.Builder.create () in
        let d = Ir.Builder.load b i (Ir.Addr.scalar "d") in
        let x = Ir.Builder.load b i (Ir.Addr.element "x") in
        let q = ref x in
        for _ = 1 to 12 do
          q := Ir.Builder.binop b Mach.Opcode.Div i !q d
        done;
        Ir.Builder.store b i (Ir.Addr.element "y") !q;
        let ddg = Ddg.Graph.of_loop (Ir.Builder.loop b ~name:"divchain" ()) in
        check Alcotest.int "acyclic" 0 (nontrivial_sccs ddg);
        check Alcotest.bool "large upper bound" true (Ddg.Minii.upper_bound ddg > 144);
        check Alcotest.int "1" 1 (Ddg.Minii.rec_mii ddg);
        check_against_reference "reference" ddg);
    qcheck ~count:60 "rec-mii-matches-reference-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor ->
            let ddg = Ddg.Graph.of_loop (fst (Ir.Unroll.loop ~factor loop)) in
            Ddg.Minii.rec_mii ddg = rec_mii_reference ddg)
          [ 1; 4 ]);
    slow_case "rec-mii-matches-reference-on-suite" (fun () ->
        List.iter
          (fun loop ->
            let name = Ir.Loop.name loop in
            check_against_reference name (Ddg.Graph.of_loop loop);
            List.iter
              (fun (m : Mach.Machine.t) ->
                match Partition.Driver.pipeline ~machine:m loop with
                | Error e -> Alcotest.fail (name ^ ": " ^ e.Verify.Stage_error.message)
                | Ok r ->
                    check_against_reference (name ^ " rewritten")
                      (Ddg.Graph.of_loop ~latency:m.latency r.Partition.Driver.rewritten))
              [ m2x8e; m8x2c ])
          (Workload.Suite.loops ()));
  ]

let suite =
  [
    ("ddg.memdep", memdep_tests);
    ("ddg.build", build_tests);
    ("ddg.minii", minii_tests);
    ("ddg.minii-oracle", oracle_tests);
  ]
