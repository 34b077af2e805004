open Testlib

(* The exact branch-and-bound solver (lib/exact): pruning soundness
   against brute force, the heuristic-dominance property the gap report
   rests on, witness verification (EX001-EX006) under mutation, and the
   determinism / cancellation contracts. *)

let leaf_score ~machine ~loop assignment =
  let l = Exact.Bounds.leaf_exact ~machine ~loop assignment in
  (l.Exact.Bounds.mii, l.Exact.Bounds.copies)

(* Brute force over the FULL bank-vector space (no symmetry reduction,
   no bounds) — the independent oracle the search must match. *)
let brute_force ~machine ~(space : Exact.Space.t) =
  let c = machine.Mach.Machine.clusters in
  let n = space.Exact.Space.n in
  let banks = Array.make (max n 1) 0 in
  let best = ref None in
  let consider () =
    let s = leaf_score ~machine ~loop:space.Exact.Space.loop
        (Exact.Space.to_assignment space banks)
    in
    match !best with
    | Some b when Exact.Bounds.compare_score b s <= 0 -> ()
    | _ -> best := Some s
  in
  let rec go d = if d = n then consider () else
    for b = 0 to c - 1 do
      banks.(d) <- b;
      go (d + 1)
    done
  in
  go 0;
  Option.get !best

let solve_scores ~machine loop =
  let s = Exact.Solve.solve ~machine loop in
  match s.Exact.Solve.status with
  | Exact.Solve.Budget_exhausted _ -> None
  | _ -> Some (s.Exact.Solve.best_mii, s.Exact.Solve.best_copies)

(* Tiny loops where c^n brute force stays cheap. *)
let tiny_loops ~max_vregs =
  List.filter
    (fun l -> Ir.Vreg.Set.cardinal (Ir.Loop.vregs l) <= max_vregs)
    (Workload.Suite.loops ~n:60 ())

let search_tests =
  [
    slow_case "search-matches-brute-force-2x8" (fun () ->
        let loops = tiny_loops ~max_vregs:7 in
        check Alcotest.bool "have tiny loops" true (List.length loops >= 5);
        List.iter
          (fun loop ->
            let space = Exact.Space.build loop in
            let expect = brute_force ~machine:m2x8e ~space in
            match solve_scores ~machine:m2x8e loop with
            | None -> Alcotest.fail "budget exhausted on a tiny loop"
            | Some got ->
                check
                  Alcotest.(pair int int)
                  (Ir.Loop.name loop) expect got)
          loops);
    slow_case "search-matches-brute-force-4x4" (fun () ->
        List.iter
          (fun loop ->
            let space = Exact.Space.build loop in
            let expect = brute_force ~machine:m4x4e ~space in
            match solve_scores ~machine:m4x4e loop with
            | None -> Alcotest.fail "budget exhausted on a tiny loop"
            | Some got ->
                check
                  Alcotest.(pair int int)
                  (Ir.Loop.name loop) expect got)
          (tiny_loops ~max_vregs:5));
    slow_case "search-matches-brute-force-copy-unit" (fun () ->
        List.iter
          (fun loop ->
            let space = Exact.Space.build loop in
            let expect = brute_force ~machine:m4x4c ~space in
            match solve_scores ~machine:m4x4c loop with
            | None -> Alcotest.fail "budget exhausted on a tiny loop"
            | Some got ->
                check
                  Alcotest.(pair int int)
                  (Ir.Loop.name loop) expect got)
          (tiny_loops ~max_vregs:5));
    case "monolithic-machine-trivial-space" (fun () ->
        (* One cluster: restricted growth admits only the all-zero
           assignment, so the search is one leaf and always complete. *)
        let loop = List.hd (sample_loops ~n:1 ()) in
        let s = Exact.Solve.solve ~machine:ideal16 loop in
        match s.Exact.Solve.status with
        | Exact.Solve.Budget_exhausted _ -> Alcotest.fail "trivial space exhausted budget"
        | _ -> check Alcotest.int "no copies on one bank" 0 s.Exact.Solve.best_copies);
    case "prefired-cancel-budget-exhausted" (fun () ->
        let t = Engine.Cancel.make ~clock:(fun () -> 0.0) () in
        Engine.Cancel.cancel t;
        let loop = List.hd (sample_loops ~n:1 ()) in
        let s =
          Exact.Solve.solve ~cancel:(Engine.Cancel.guard t) ~machine:m4x4e loop
        in
        match s.Exact.Solve.status with
        | Exact.Solve.Budget_exhausted { best; _ } ->
            (* The all-zero seed is evaluated before the search, so an
               incumbent exists even when cancellation is immediate. *)
            check Alcotest.bool "incumbent realized" true (best <> None)
        | _ -> Alcotest.fail "expected Budget_exhausted under a fired token");
    case "zero-budget-still-seeds" (fun () ->
        let loop = List.hd (sample_loops ~n:3 ()) in
        let s = Exact.Solve.solve ~budget:0 ~machine:m8x2e loop in
        check Alcotest.bool "incumbent mii finite" true
          (s.Exact.Solve.best_mii < max_int));
    case "schedule-at-achieved-ii" (fun () ->
        let loop = List.hd (sample_loops ~n:1 ()) in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.schedule ~machine:ideal16 ~mii:1 ddg with
        | None -> Alcotest.fail "ideal schedule failed"
        | Some o -> (
            match
              Sched.Modulo.schedule_at ~machine:ideal16 ~ii:o.Sched.Modulo.ii ddg
            with
            | None -> Alcotest.fail "schedule_at rejects the achieved II"
            | Some o' -> check Alcotest.int "same II" o.Sched.Modulo.ii o'.Sched.Modulo.ii));
  ]

(* ------------------------------------------------------------------ *)
(* Heuristic dominance: where the solver proves optimality, greedy can *)
(* never do better — the inequality the gap table relies on.           *)
(* ------------------------------------------------------------------ *)

let dominance_tests =
  let machines = [ m2x8e; m4x4e; m8x2e; m4x4c ] in
  [
    qcheck ~count:40 "greedy-never-beats-proven-optimum" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        if Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop) > Exact.Solve.slice_max_vregs then
          true
        else
          List.for_all
            (fun machine ->
              let e = Exact.Gap.one ~cancel:Engine.Cancel.never ~machine loop in
              match e.Exact.Gap.solve.Exact.Solve.status with
              | Exact.Solve.Optimal w when e.Exact.Gap.greedy_ii > 0 ->
                  e.Exact.Gap.greedy_ii > w.Exact.Witness.ii
                  || (e.Exact.Gap.greedy_ii = w.Exact.Witness.ii
                      && e.Exact.Gap.greedy_copies >= w.Exact.Witness.copies)
              | _ -> true)
            machines);
    qcheck ~count:40 "optimal-witness-verifies-clean" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        if Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop) > Exact.Solve.slice_max_vregs then
          true
        else
          let s = Exact.Solve.solve ~machine:m4x4e loop in
          match s.Exact.Solve.status with
          | Exact.Solve.Optimal _ ->
              not (Verify.Diag.has_errors s.Exact.Solve.diags)
          | _ -> true);
    qcheck ~count:40 "lower-bound-below-any-witness" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        if Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop) > Exact.Solve.slice_max_vregs then
          true
        else
          let s = Exact.Solve.solve ~machine:m2x8e loop in
          match Exact.Solve.witness s with
          | Some w -> Exact.Solve.lower s <= w.Exact.Witness.ii
          | None -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Witness mutation: every EX check must reject its corruption.        *)
(* ------------------------------------------------------------------ *)

(* A register whose bank flip is guaranteed visible: the source of a real
   op with a different destination (the op's cluster is pinned by the
   destination, so the flipped operand goes non-local). *)
let corruptible (w : Exact.Witness.t) =
  List.find_map
    (fun op ->
      if Ir.Op.is_copy op then None
      else
        match Ir.Op.dst op with
        | None -> None
        | Some d -> List.find_opt (fun s -> not (Ir.Vreg.equal s d)) (Ir.Op.srcs op))
    (Ir.Loop.ops w.Exact.Witness.rewritten)

(* A proven-optimal witness rich enough for every mutation to be
   observable: II >= 2 (so lower can be understated) and a corruptible
   source operand. *)
let proven_witness () =
  let rec find = function
    | [] -> Alcotest.fail "no proven-optimal loop found in the slice"
    | loop :: rest -> (
        match (Exact.Solve.solve ~machine:m4x4e loop).Exact.Solve.status with
        | Exact.Solve.Optimal w
          when w.Exact.Witness.ii >= 2 && corruptible w <> None ->
            (loop, w)
        | _ -> find rest)
  in
  find (List.filter
          (fun l -> Ir.Vreg.Set.cardinal (Ir.Loop.vregs l) <= Exact.Solve.slice_max_vregs)
          (Workload.Suite.loops ()))

let claim_of ~loop (w : Exact.Witness.t) ~lower ~optimal =
  {
    Verify.Exact_check.original = loop;
    rewritten = w.Exact.Witness.rewritten;
    assignment = w.Exact.Witness.assignment;
    kernel = w.Exact.Witness.kernel;
    ddg = w.Exact.Witness.ddg;
    claimed_ii = w.Exact.Witness.ii;
    claimed_copies = w.Exact.Witness.copies;
    lower;
    optimal;
  }

let mutation_tests =
  [
    case "pristine-claim-is-clean" (fun () ->
        let loop, w = proven_witness () in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            (claim_of ~loop w ~lower:w.Exact.Witness.ii ~optimal:true)
        in
        check Alcotest.bool "clean" false (Verify.Diag.has_errors ds));
    case "ex001-ii-mismatch" (fun () ->
        let loop, w = proven_witness () in
        let c = claim_of ~loop w ~lower:w.Exact.Witness.ii ~optimal:false in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            { c with Verify.Exact_check.claimed_ii = c.Verify.Exact_check.claimed_ii + 1 }
        in
        check Alcotest.bool "EX001" true (Verify.Diag.has_code "EX001" ds));
    case "ex002-corrupted-assignment" (fun () ->
        let loop, w = proven_witness () in
        (* Move a register to another bank without re-inserting copies:
           operand locality must then fail. *)
        let r = Option.get (corruptible w) in
        let b = Ir.Vreg.Map.find r w.Exact.Witness.assignment in
        let corrupted =
          Ir.Vreg.Map.add r ((b + 1) mod m4x4e.Mach.Machine.clusters)
            w.Exact.Witness.assignment
        in
        let c = claim_of ~loop w ~lower:w.Exact.Witness.ii ~optimal:true in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            { c with Verify.Exact_check.assignment = corrupted }
        in
        check Alcotest.bool "EX002" true (Verify.Diag.has_code "EX002" ds));
    case "ex003-wrong-original" (fun () ->
        let loop, w = proven_witness () in
        let truncated =
          match Ir.Loop.ops loop with
          | _ :: (_ :: _ as rest) -> Ir.Loop.with_ops loop rest
          | _ -> Alcotest.fail "loop too small to truncate"
        in
        let c = claim_of ~loop w ~lower:w.Exact.Witness.ii ~optimal:false in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            { c with Verify.Exact_check.original = truncated }
        in
        check Alcotest.bool "EX003" true (Verify.Diag.has_code "EX003" ds));
    case "ex004-copy-count-lie" (fun () ->
        let loop, w = proven_witness () in
        let c = claim_of ~loop w ~lower:w.Exact.Witness.ii ~optimal:false in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            { c with Verify.Exact_check.claimed_copies = c.Verify.Exact_check.claimed_copies + 1 }
        in
        check Alcotest.bool "EX004" true (Verify.Diag.has_code "EX004" ds));
    case "ex005-incoherent-lower" (fun () ->
        let loop, w = proven_witness () in
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            (claim_of ~loop w ~lower:(w.Exact.Witness.ii + 1) ~optimal:false)
        in
        check Alcotest.bool "EX005" true (Verify.Diag.has_code "EX005" ds));
    case "ex006-untight-optimal-claim" (fun () ->
        let loop, w = proven_witness () in
        (* Claiming optimality while admitting lower < II is self-refuting;
           proven_witness guarantees II >= 2 so the understated lower is
           still a legal bound (>= 1, catching EX005 would mask EX006). *)
        let ds =
          Verify.Exact_check.check ~machine:m4x4e
            (claim_of ~loop w ~lower:(w.Exact.Witness.ii - 1) ~optimal:true)
        in
        check Alcotest.bool "EX006" true (Verify.Diag.has_code "EX006" ds));
  ]

(* ------------------------------------------------------------------ *)
(* Gap study determinism + pipeline deadline plumbing.                 *)
(* ------------------------------------------------------------------ *)

let harness_tests =
  [
    slow_case "gap-rows-identical-j1-j4" (fun () ->
        let rows jobs =
          List.map Exact.Gap.row_of (Exact.Gap.run ~jobs ~n:60 ())
        in
        let r1 = rows 1 and r4 = rows 4 in
        check Alcotest.bool "same rows" true (r1 = r4));
    case "gap-slice-nonempty" (fun () ->
        check Alcotest.bool "at least 40 tractable loops" true
          (List.length (Exact.Gap.slice ()) >= 40));
    case "pipeline-deadline-pipe008" (fun () ->
        let loop = List.hd (sample_loops ~n:1 ()) in
        match
          Partition.Driver.pipeline ~cancel:(fun () -> true) ~machine:m4x4e loop
        with
        | Ok _ -> Alcotest.fail "fired token must stop the pipeline"
        | Error e ->
            check Alcotest.string "code" Partition.Driver.deadline_code
              e.Verify.Stage_error.code);
    case "pipeline-never-cancel-unchanged" (fun () ->
        let loop = List.hd (sample_loops ~n:1 ()) in
        match
          ( Partition.Driver.pipeline ~cancel:(fun () -> false) ~machine:m4x4e loop,
            Partition.Driver.pipeline ~machine:m4x4e loop )
        with
        | Ok a, Ok b ->
            check Alcotest.int "same II" a.Partition.Driver.clustered.Sched.Modulo.ii
              b.Partition.Driver.clustered.Sched.Modulo.ii
        | _ -> Alcotest.fail "pipeline failed");
  ]

(* ------------------------------------------------------------------ *)
(* The search against its list-based reference.                        *)
(* ------------------------------------------------------------------ *)

(* The branch-and-bound as it was before its certificate state became
   per-depth count rows: on every prune it rebuilds each cluster's
   contribution depths from a scan of all ops and a fold over a pair
   table, sorts them and takes the k-th smallest. Kept verbatim as the
   oracle the production search must match outcome for outcome. *)
module Search_ref = struct
  exception Aborted of bool

  let kth_smallest k l = List.nth (List.sort compare l) (k - 1)

  let run ?(budget = 300_000) ?(cancel = fun () -> false) ~machine ~space
      ~static_lower ~seeds () : Exact.Search.outcome =
    let m : Mach.Machine.t = machine in
    let sp : Exact.Space.t = space in
    let c = m.Mach.Machine.clusters in
    let n = sp.Exact.Space.n in
    let n_ops = Array.length sp.Exact.Space.ops in
    let nodes = ref 0 and leaves = ref 0 in
    let pruned = ref 0 and backjumps = ref 0 in
    let inc = ref [||] and inc_mii = ref max_int and inc_copies = ref max_int in
    let record banks mii copies =
      if Exact.Bounds.compare_score (mii, copies) (!inc_mii, !inc_copies) < 0 then begin
        inc := Array.copy banks;
        inc_mii := mii;
        inc_copies := copies
      end
    in
    let eval_seed banks =
      incr leaves;
      let l =
        Exact.Bounds.leaf_exact ~machine:m ~loop:sp.Exact.Space.loop
          (Exact.Space.to_assignment sp banks)
      in
      record banks l.Exact.Bounds.mii l.Exact.Bounds.copies
    in
    List.iter eval_seed seeds;
    let bank = Array.make (max n 1) (-1) in
    let op_cluster = Array.make (max n_ops 1) (-1) in
    Array.iteri
      (fun oi (o : Exact.Space.op_info) ->
        if o.Exact.Space.pin = None && not o.Exact.Space.copy then op_cluster.(oi) <- 0)
      sp.Exact.Space.ops;
    let pinned = Array.make c 0 in
    pinned.(0) <- sp.Exact.Space.fixed_zero;
    let pairs : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let pairs_into = Array.make c 0 in
    let total_pairs = ref 0 in
    let assign d b =
      bank.(d) <- b;
      let added = ref [] and pinned_ops = ref [] in
      let add_pair r cl =
        if not (Hashtbl.mem pairs (r, cl)) then begin
          Hashtbl.add pairs (r, cl) d;
          pairs_into.(cl) <- pairs_into.(cl) + 1;
          incr total_pairs;
          added := (r, cl) :: !added
        end
      in
      List.iter
        (fun oi ->
          let o = sp.Exact.Space.ops.(oi) in
          op_cluster.(oi) <- b;
          pinned.(b) <- pinned.(b) + 1;
          pinned_ops := oi :: !pinned_ops;
          Array.iter
            (fun u -> if bank.(u) >= 0 && bank.(u) <> b then add_pair u b)
            o.Exact.Space.uses)
        sp.Exact.Space.pinned_by.(d);
      List.iter
        (fun oi ->
          let cl = op_cluster.(oi) in
          if cl >= 0 && cl <> b then add_pair d cl)
        sp.Exact.Space.used_by.(d);
      let undo_pairs = !added and undo_ops = !pinned_ops in
      fun () ->
        List.iter
          (fun key ->
            Hashtbl.remove pairs key;
            pairs_into.(snd key) <- pairs_into.(snd key) - 1;
            decr total_pairs)
          undo_pairs;
        List.iter
          (fun oi ->
            op_cluster.(oi) <- -1;
            pinned.(b) <- pinned.(b) - 1)
          undo_ops;
        bank.(d) <- -1
    in
    let pin_contribs cl =
      let acc = ref [] in
      Array.iteri
        (fun oi (o : Exact.Space.op_info) ->
          if op_cluster.(oi) = cl then
            acc := (match o.Exact.Space.pin with Some r -> r | None -> -1) :: !acc)
        sp.Exact.Space.ops;
      !acc
    in
    let pair_contribs cl =
      Hashtbl.fold (fun (_, pc) cu acc -> if pc = cl then cu :: acc else acc) pairs []
    in
    let all_pair_contribs () = Hashtbl.fold (fun _ cu acc -> cu :: acc) pairs [] in
    let cert ~cap ~v contribs =
      if v <= 1 then Some (-1)
      else
        let k = if cap = 0 then 1 else ((v - 1) * cap) + 1 in
        if List.length contribs < k then None else Some (kth_smallest k contribs)
    in
    let mii_cert v =
      if static_lower >= v then Some (-1)
      else begin
        let best = ref None in
        let push = function
          | Some cu -> (
              match !best with
              | Some b when b <= cu -> ()
              | _ -> best := Some cu)
          | None -> ()
        in
        (match m.Mach.Machine.copy_model with
        | Mach.Machine.Embedded ->
            for cl = 0 to c - 1 do
              push
                (cert ~cap:m.Mach.Machine.fus_per_cluster ~v
                   (pin_contribs cl @ pair_contribs cl))
            done
        | Mach.Machine.Copy_unit ->
            for cl = 0 to c - 1 do
              push (cert ~cap:m.Mach.Machine.fus_per_cluster ~v (pin_contribs cl));
              push (cert ~cap:m.Mach.Machine.copy_ports ~v (pair_contribs cl))
            done;
            push (cert ~cap:m.Mach.Machine.busses ~v (all_pair_contribs ())));
        !best
      end
    in
    let copies_cert k =
      if k <= 0 then Some (-1)
      else
        let contribs = all_pair_contribs () in
        if List.length contribs < k then None else Some (kth_smallest k contribs)
    in
    let prune_culprit ~d ~lbm =
      if !inc_mii = max_int then d
      else if lbm > !inc_mii then
        match mii_cert (!inc_mii + 1) with Some cu -> cu | None -> d
      else
        match (mii_cert !inc_mii, copies_cert !inc_copies) with
        | Some a, Some b -> max a b
        | _ -> d
    in
    let leaf () =
      let a = Exact.Space.to_assignment sp bank in
      let ins = Partition.Copies.insert_loop ~machine:m ~assignment:a sp.Exact.Space.loop in
      let copies = ins.Partition.Copies.n_copies in
      let res =
        Ddg.Minii.res_mii_clustered ~machine:m
          ~ops_per_cluster:ins.Partition.Copies.ops_per_cluster
          ~copies_per_cluster:ins.Partition.Copies.copies_per_cluster
      in
      let floor_mii = max res static_lower in
      if Exact.Bounds.compare_score (floor_mii, copies) (!inc_mii, !inc_copies) >= 0 then
        incr pruned
      else begin
        incr leaves;
        record bank (Exact.Bounds.copies_mii ~machine:m ins) copies
      end
    in
    let rec descend d maxused =
      if d = n then begin
        leaf ();
        d - 1
      end
      else begin
        let limit = min (maxused + 1) (c - 1) in
        let result = ref (d - 1) in
        (try
           for b = 0 to limit do
             if !nodes >= budget then raise (Aborted false);
             if !nodes land 255 = 0 && cancel () then raise (Aborted true);
             incr nodes;
             let undo = assign d b in
             let lbm =
               max static_lower
                 (Ddg.Minii.res_mii_clustered ~machine:m ~ops_per_cluster:pinned
                    ~copies_per_cluster:pairs_into)
             in
             let lbc = !total_pairs in
             if Exact.Bounds.compare_score (lbm, lbc) (!inc_mii, !inc_copies) >= 0 then begin
               incr pruned;
               let cu = prune_culprit ~d ~lbm in
               undo ();
               if cu < d then begin
                 incr backjumps;
                 result := cu;
                 raise Exit
               end
             end
             else begin
               let t = descend (d + 1) (max maxused b) in
               undo ();
               if t < d then begin
                 result := t;
                 raise Exit
               end
             end
           done
         with Exit -> ());
        !result
      end
    in
    let complete, cancelled =
      if n = 0 then (true, false)
      else
        match descend 0 (-1) with
        | _ -> (true, false)
        | exception Aborted by_cancel -> (false, by_cancel)
    in
    {
      Exact.Search.best = !inc;
      best_mii = !inc_mii;
      best_copies = !inc_copies;
      complete;
      cancelled;
      stats =
        {
          Exact.Search.nodes = !nodes;
          leaves = !leaves;
          pruned = !pruned;
          backjumps = !backjumps;
        };
    }
end

(* The search's inputs as [Exact.Gap.one] builds them: the all-zero seed
   plus, with [greedy], the greedy pipeline's assignment when it
   compiled. *)
let search_inputs ~greedy ~machine loop =
  let space = Exact.Space.build loop in
  let ddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency loop in
  let static_lower = Exact.Bounds.static_lower ~machine ddg in
  let greedy_seed =
    if not greedy then []
    else
      match Partition.Driver.pipeline ~machine loop with
      | Ok r -> Option.to_list (Exact.Space.of_assignment space r.Partition.Driver.assignment)
      | Error _ -> []
  in
  (space, static_lower, Array.make space.Exact.Space.n 0 :: greedy_seed)

let show_outcome (o : Exact.Search.outcome) =
  let s = o.Exact.Search.stats in
  Printf.sprintf "[%s] mii %d copies %d complete %b cancelled %b; %d nodes %d leaves %d pruned %d backjumps"
    (String.concat " " (Array.to_list (Array.map string_of_int o.Exact.Search.best)))
    o.Exact.Search.best_mii o.Exact.Search.best_copies o.Exact.Search.complete
    o.Exact.Search.cancelled s.Exact.Search.nodes s.Exact.Search.leaves s.Exact.Search.pruned
    s.Exact.Search.backjumps

(* Both searches on one case; [Error] names the first difference. *)
let search_against_reference ?budget ~greedy ~machine loop =
  let space, static_lower, seeds = search_inputs ~greedy ~machine loop in
  let run f = f ?budget ?cancel:None ~machine ~space ~static_lower ~seeds () in
  let got = run Exact.Search.run and want = run Search_ref.run in
  if got = want then Ok got
  else
    Error
      (Printf.sprintf "%s on %s: %s, reference %s" (Ir.Loop.name loop)
         machine.Mach.Machine.name (show_outcome got) (show_outcome want))

(* The deterministic cases: the exact slice on the paper's three
   geometries under both copy models; a 4x4 copy-unit machine without
   busses and one without copy ports, whose certificates take the
   [cap = 0] path (any copy saturates the resource, so the greedy seed,
   whose schedule would start at an unbounded II, is left out); and two
   large loops whose budget-exhausted searches prune tens of thousands
   of times. *)
let search_cases () =
  let slice = Exact.Gap.slice () in
  let m2x8c = Mach.Machine.paper_clustered ~clusters:2 ~copy_model:Mach.Machine.Copy_unit in
  let cap0 ~copy_ports ~busses =
    Mach.Machine.make ~copy_ports ~busses ~clusters:4 ~fus_per_cluster:4
      ~copy_model:Mach.Machine.Copy_unit ()
  in
  let suite name = Option.get (Workload.Suite.by_name name) in
  List.concat_map
    (fun machine -> List.map (fun loop -> (None, true, machine, loop)) slice)
    [ m2x8e; m4x4e; m8x2e; m2x8c; m4x4c; m8x2c ]
  @ List.concat_map
      (fun machine -> List.map (fun loop -> (None, false, machine, loop)) slice)
      [ cap0 ~copy_ports:2 ~busses:0; cap0 ~copy_ports:0 ~busses:4 ]
  @ [ (Some 20_000, true, m4x4e, suite "gen1"); (Some 20_000, true, m8x2e, suite "gen22") ]

let search_ref_tests =
  [
    slow_case "deterministic-cases" (fun () ->
        let backjumps = ref 0 and exhausted = ref 0 in
        List.iter
          (fun (budget, greedy, machine, loop) ->
            match search_against_reference ?budget ~greedy ~machine loop with
            | Ok o ->
                backjumps := !backjumps + o.Exact.Search.stats.Exact.Search.backjumps;
                if not o.Exact.Search.complete then incr exhausted
            | Error msg -> Alcotest.fail msg)
          (search_cases ());
        check Alcotest.bool "backjumps exercised" true (!backjumps > 0);
        check Alcotest.int "budget-exhausted cases" 2 !exhausted);
    qcheck ~count:40 "random-slice-loops" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop) > Exact.Solve.slice_max_vregs
        || List.for_all
             (fun machine ->
               match search_against_reference ~greedy:true ~machine loop with
               | Ok _ -> true
               | Error msg -> QCheck2.Test.fail_report msg)
             [ m2x8e; m4x4c; m8x2e ]);
  ]

(* Every outcome of the deterministic cases folded into one MD5. The
   expected value was computed before the certificate state moved to
   count rows. *)
let search_digest () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (budget, greedy, machine, loop) ->
      let space, static_lower, seeds = search_inputs ~greedy ~machine loop in
      Printf.bprintf buf "%s %s %s\n" (Ir.Loop.name loop) machine.Mach.Machine.name
        (show_outcome
           (Exact.Search.run ?budget ~machine ~space ~static_lower ~seeds ())))
    (search_cases ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let search_digest_tests =
  [
    slow_case "search-outcomes-pinned" (fun () ->
        check Alcotest.string "outcome digest" "26b0ce83b67367693fd8486bbc2b4511" (search_digest ()));
  ]

let suite =
  [
    ("exact.search", search_tests);
    ("exact.dominance", dominance_tests);
    ("exact.mutation", mutation_tests);
    ("exact.harness", harness_tests);
    ("exact.search-ref", search_ref_tests);
    ("exact.search-digest", search_digest_tests);
  ]
