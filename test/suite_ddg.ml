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
          (fun (loop, bodies) ->
            let name = Ir.Loop.name loop in
            check_against_reference name (Ddg.Graph.of_loop loop);
            List.iter
              (fun ((cfg : Core.Experiment.config), body) ->
                if
                  (cfg.clusters, cfg.copy_model) = (2, Mach.Machine.Embedded)
                  || (cfg.clusters, cfg.copy_model) = (8, Mach.Machine.Copy_unit)
                then
                  check_against_reference (name ^ " rewritten")
                    (Ddg.Graph.of_loop ~latency:cfg.machine.latency (rewritten_exn body)))
              bodies)
          (Lazy.force corpus));
  ]

(* The reference DDG build: a scan over every ordered pair of ops, with
   the flow / anti / output checks of Section 4 on each, then a scan over
   every pair of memory references. Kept verbatim from before the build
   moved to position tables; [Ddg.Graph] must produce the same edges in
   the same per-node order. *)
let reference_register_deps ~latency ~carried g ops =
  let add_dep ~src ~dst dep = Graphlib.Digraph.add_edge g ~src ~dst dep in
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let defs = Array.map Ir.Op.defs arr in
  let defs_at = Ir.Vreg.Tbl.create 64 in
  let positions_defining r = Option.value ~default:[] (Ir.Vreg.Tbl.find_opt defs_at r) in
  for i = n - 1 downto 0 do
    List.iter (fun r -> Ir.Vreg.Tbl.replace defs_at r (i :: positions_defining r)) defs.(i)
  done;
  for p = 0 to n - 1 do
    let dp = arr.(p) in
    for q = p + 1 to n - 1 do
      let dq = arr.(q) in
      List.iter
        (fun r ->
          if List.exists (Ir.Vreg.equal r) (Ir.Op.uses dq) then begin
            let killed = List.exists (fun k -> k > p && k < q) (positions_defining r) in
            if not killed then
              add_dep ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
                (Ddg.Dep.make ~kind:Ddg.Dep.Flow ~latency:(Ir.Op.latency latency dp) ~distance:0)
          end)
        defs.(p);
      List.iter
        (fun r ->
          if
            List.exists (Ir.Vreg.equal r) (Ir.Op.uses dp)
            && (carried = false || List.exists (fun k -> k < p) (positions_defining r))
          then
            add_dep ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
              (Ddg.Dep.make ~kind:Ddg.Dep.Anti ~latency:0 ~distance:0))
        defs.(q);
      List.iter
        (fun r ->
          if List.exists (Ir.Vreg.equal r) defs.(p) then
            add_dep ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id dq)
              (Ddg.Dep.make ~kind:Ddg.Dep.Output ~latency:1 ~distance:0))
        defs.(q)
    done
  done;
  if carried then
    for q = 0 to n - 1 do
      let uq = arr.(q) in
      List.iter
        (fun r ->
          match positions_defining r with
          | [] -> ()
          | defs ->
              let first_def = List.hd defs in
              let last_def = List.nth defs (List.length defs - 1) in
              if first_def >= q then begin
                let dp = arr.(last_def) in
                add_dep ~src:(Ir.Op.id dp) ~dst:(Ir.Op.id uq)
                  (Ddg.Dep.make ~kind:Ddg.Dep.Flow ~latency:(Ir.Op.latency latency dp) ~distance:1)
              end)
        (Ir.Op.uses uq)
    done

let reference_memory_deps ~latency ~carried g ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let is_store o = Mach.Opcode.equal (Ir.Op.opcode o) Mach.Opcode.Store in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if p <> q || carried then begin
        let a = arr.(p) and b = arr.(q) in
        match (Ir.Op.addr a, Ir.Op.addr b) with
        | Some aa, Some ab when is_store a || is_store b ->
            let kind : Ddg.Dep.kind_mem =
              match (is_store a, is_store b) with
              | true, false -> Ddg.Dep.Mem_flow
              | false, true -> Ddg.Dep.Mem_anti
              | true, true -> Ddg.Dep.Mem_output
              | false, false -> assert false
            in
            let min_dist = if p < q then 0 else 1 in
            let latency =
              match kind with Ddg.Dep.Mem_flow -> Ir.Op.latency latency a | _ -> 1
            in
            let emit d =
              if d >= min_dist && (carried || d = 0) then
                Graphlib.Digraph.add_edge g ~src:(Ir.Op.id a) ~dst:(Ir.Op.id b)
                  (Ddg.Dep.make ~kind:(Ddg.Dep.Mem kind) ~latency ~distance:d)
            in
            (match Ddg.Memdep.test ~earlier:aa ~later:ab with
            | Ddg.Memdep.No_dep -> ()
            | Ddg.Memdep.Dep_at d -> emit d
            | Ddg.Memdep.Dep_all -> emit min_dist)
        | _ -> ()
      end
    done
  done

let reference_graph ?(latency = Mach.Latency.paper) ~carried ops =
  let g = Graphlib.Digraph.create () in
  List.iter (fun o -> Graphlib.Digraph.add_node g (Ir.Op.id o)) ops;
  reference_register_deps ~latency ~carried g ops;
  reference_memory_deps ~latency ~carried g ops;
  g

(* Reference ASAP/ALAP: longest paths over a topological sort of the
   distance-0 subgraph, as [Sched.Slack] computed them before it walked
   body order. *)
let reference_slack ddg =
  let g = Ddg.Graph.loop_independent ddg in
  let weight (e : Ddg.Dep.t Graphlib.Digraph.edge) = Ddg.Dep.latency e.label in
  let asap = Graphlib.Topo.longest_paths ~weight g in
  let tail = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let own = Ddg.Graph.latency_of ddg (Ddg.Graph.op ddg id) in
      Hashtbl.replace tail id
        (List.fold_left
           (fun acc (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
             max acc (weight e + Hashtbl.find tail e.dst))
           own (Graphlib.Digraph.succs g id)))
    (List.rev (Graphlib.Topo.sort_exn g));
  let cp = Hashtbl.fold (fun id d acc -> max acc (d + Hashtbl.find tail id)) asap 0 in
  (asap, (fun id -> cp - Hashtbl.find tail id), cp)

(* RecMII over a [Graphlib.Digraph], kept verbatim from before
   [Ddg.Minii] read the DDG's rows ([upper_bound] is passed in as [top],
   and the SCCs come from the verbatim table-based Tarjan). *)
module Minii_ref = struct
  (* One SCC's internal edges as int arrays over dense local indices.
     [hi] is 1 + the sum over its nodes of their largest intra-SCC
     out-edge latency: every simple circuit stays below it. *)
  type scc = { n : int; src : int array; dst : int array; lat : int array; dist : int array; hi : int }

  let scc_of g comp =
    let index = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace index v i) comp;
    let edges = ref [] and hi = ref 1 in
    List.iter
      (fun v ->
        let max_lat = ref 0 in
        List.iter
          (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
            match Hashtbl.find_opt index e.dst with
            | None -> ()
            | Some j ->
                max_lat := max !max_lat (Ddg.Dep.latency e.label);
                edges := (Hashtbl.find index v, j, e.label) :: !edges)
          (Graphlib.Digraph.succs g v);
        hi := !hi + !max_lat)
      comp;
    let edges = Array.of_list !edges in
    let field f = Array.map f edges in
    {
      n = List.length comp;
      src = field (fun (s, _, _) -> s);
      dst = field (fun (_, d, _) -> d);
      lat = field (fun (_, _, l) -> Ddg.Dep.latency l);
      dist = field (fun (_, _, l) -> Ddg.Dep.distance l);
      hi = !hi;
    }

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

  let rec_mii ~top g =
    (* Every circuit lives inside one SCC, and the whole body is feasible at
       II iff each SCC is. Within an SCC, cycle weight Σlat − II·Σdist is
       strictly decreasing in II for any circuit (every circuit carries
       distance >= 1 in a well-formed body), so feasibility is monotone and
       binary search applies; the running maximum over the SCCs already
       searched is each search's lower bound. An SCC infeasible at its own
       [hi] has a zero-distance circuit and no feasible II at all: the
       answer is then [upper_bound], as for a search over the whole graph. *)
    let rec search s lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if feasible s mid then search s lo mid else search s (mid + 1) hi
    in
    let per_scc lo comp =
      let s = scc_of g comp in
      let hi = max lo s.hi in
      let r = search s lo (hi + 1) in
      if r > hi then top else r
    in
    min top (List.fold_left per_scc 1 (Scc_ref.nontrivial g))
end

(* [ddg] against the reference build of [ops]: every node's [succs] and
   [preds] equal, order and labels included; every distance-0 edge
   forward in body order; Slack's ASAP/ALAP equal to the reference;
   every node's compressed successor and predecessor rows equal to the
   reference's [succs] and [preds], element by element; and the upper
   bound and RecMII equal to the verbatim Digraph computation's on the
   reference graph. Returns an error message naming the first
   mismatch. *)
let against_reference ?(latency = Mach.Latency.paper) ~carried ops ddg =
  let g = Ddg.Graph.graph ddg and r = reference_graph ~latency ~carried ops in
  let pos = Hashtbl.create 64 in
  let order = List.map Ir.Op.id (Ddg.Graph.ops_in_order ddg) in
  List.iteri (fun k id -> Hashtbl.replace pos id k) order;
  let sl = Sched.Slack.analyze ddg in
  let asap, alap, cp = reference_slack ddg in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  if Graphlib.Digraph.nodes g <> Graphlib.Digraph.nodes r then fail "node sets differ";
  List.iter
    (fun id ->
      if Graphlib.Digraph.succs g id <> Graphlib.Digraph.succs r id then fail "op%d: succs differ" id;
      if Graphlib.Digraph.preds g id <> Graphlib.Digraph.preds r id then fail "op%d: preds differ" id;
      List.iter
        (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) ->
          if Ddg.Dep.distance e.label = 0 && Hashtbl.find pos e.src >= Hashtbl.find pos e.dst then
            fail "op%d -> op%d: distance-0 edge not forward in body order" e.src e.dst)
        (Graphlib.Digraph.succs g id);
      if Sched.Slack.asap sl id <> Hashtbl.find asap id then fail "op%d: asap differs" id;
      if Sched.Slack.alap sl id <> alap id then fail "op%d: alap differs" id;
      let v = Ddg.Graph.index ddg id in
      let row off far label =
        List.init (off.(v + 1) - off.(v)) (fun j ->
            let k = off.(v) + j in
            (ddg.Ddg.Graph.ids.(far.(k)), label ddg k))
      in
      let ends far = List.map (fun (e : Ddg.Dep.t Graphlib.Digraph.edge) -> (far e, e.label)) in
      if
        row ddg.Ddg.Graph.succ_off ddg.Ddg.Graph.succ_node Ddg.Graph.succ_label
        <> ends (fun e -> e.dst) (Graphlib.Digraph.succs r id)
      then fail "op%d: successor row differs" id;
      if
        row ddg.Ddg.Graph.pred_off ddg.Ddg.Graph.pred_node Ddg.Graph.pred_label
        <> ends (fun e -> e.src) (Graphlib.Digraph.preds r id)
      then fail "op%d: predecessor row differs" id)
    order;
  let top = List.fold_left (fun acc op -> acc + Ir.Op.latency latency op) 1 ops in
  if Ddg.Minii.upper_bound ddg <> top then fail "upper bound differs";
  if Ddg.Minii.rec_mii ddg <> Minii_ref.rec_mii ~top r then fail "rec_mii differs";
  if Sched.Slack.critical_path sl <> cp then fail "critical path differs";
  match List.rev !bad with [] -> Ok () | m :: _ -> Error m

let check_reference name ?latency ~carried ops ddg =
  match against_reference ?latency ~carried ops ddg with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let build_oracle_tests =
  [
    case "suite-bodies-and-blocks" (fun () ->
        List.iter
          (fun loop ->
            let name = Ir.Loop.name loop and ops = Ir.Loop.ops loop in
            check_reference name ~carried:true ops (Ddg.Graph.of_loop loop);
            check_reference (name ^ " as a block") ~carried:false ops
              (Ddg.Graph.of_block (Ir.Block.make ~label:"b" ops)))
          (Workload.Suite.loops ()));
    slow_case "rewritten-bodies" (fun () ->
        List.iter
          (fun (loop, bodies) ->
            List.iter
              (fun ((cfg : Core.Experiment.config), body) ->
                let m = cfg.machine and body = rewritten_exn body in
                check_reference
                  (Ir.Loop.name loop ^ " on " ^ cfg.label)
                  ~latency:m.latency ~carried:true (Ir.Loop.ops body)
                  (Ddg.Graph.of_loop ~latency:m.latency body))
              bodies)
          (Lazy.force corpus));
    qcheck ~count:60 "random-loops-unrolled" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        List.for_all
          (fun factor ->
            let body = fst (Ir.Unroll.loop ~factor loop) in
            let ops = Ir.Loop.ops body in
            against_reference ~carried:true ops (Ddg.Graph.of_loop body) = Ok ()
            && against_reference ~carried:false ops
                 (Ddg.Graph.of_block (Ir.Block.make ~label:"b" ops))
               = Ok ())
          [ 1; 4 ]);
  ]

let suite =
  [
    ("ddg.memdep", memdep_tests);
    ("ddg.build", build_tests);
    ("ddg.minii", minii_tests);
    ("ddg.minii-oracle", oracle_tests);
    ("ddg.build-oracle", build_oracle_tests);
  ]
