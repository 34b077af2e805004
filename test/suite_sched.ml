open Testlib

let f = Mach.Rclass.Float

let schedule_tests =
  [
    case "make-rejects-duplicates" (fun () ->
        let op = Ir.Op.make ~dst:(vreg 1) ~addr:(Ir.Addr.element "x") ~id:0
            ~opcode:Mach.Opcode.Load ~cls:f ()
        in
        check Alcotest.bool "raises" true
          (try
             ignore
               (Sched.Schedule.make
                  [ { Sched.Schedule.op; cycle = 0; cluster = 0 };
                    { Sched.Schedule.op; cycle = 1; cluster = 0 } ]
                  Mach.Latency.paper);
             false
           with Invalid_argument _ -> true));
    case "length-includes-latency" (fun () ->
        let op = Ir.Op.make ~dst:(vreg 1) ~addr:(Ir.Addr.element "x") ~id:0
            ~opcode:Mach.Opcode.Load ~cls:f ()
        in
        let s =
          Sched.Schedule.make [ { Sched.Schedule.op; cycle = 3; cluster = 0 } ] Mach.Latency.paper
        in
        check Alcotest.int "3+2" 5 (Sched.Schedule.length s);
        check Alcotest.int "issue" 4 (Sched.Schedule.issue_length s));
    case "instructions-grouped" (fun () ->
        let mk id cyc =
          { Sched.Schedule.op =
              Ir.Op.make ~dst:(vreg (id + 1)) ~addr:(Ir.Addr.element "x") ~id
                ~opcode:Mach.Opcode.Load ~cls:f ();
            cycle = cyc; cluster = 0 }
        in
        let s = Sched.Schedule.make [ mk 0 0; mk 1 0; mk 2 2 ] Mach.Latency.paper in
        check Alcotest.int "2 rows" 2 (List.length (Sched.Schedule.instructions s));
        check Alcotest.int "row0 size" 2 (List.length (Sched.Schedule.instruction_at s 0)));
  ]

let slack_tests =
  [
    case "asap-alap-ordering" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            let sl = Sched.Slack.analyze ddg in
            List.iter
              (fun op ->
                let id = Ir.Op.id op in
                check Alcotest.bool "asap<=alap" true
                  (Sched.Slack.asap sl id <= Sched.Slack.alap sl id);
                check Alcotest.bool "flex>=1" true (Sched.Slack.flexibility sl id >= 1))
              (Ir.Loop.ops loop))
          (sample_loops ()));
    case "critical-op-exists" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.daxpy ~unroll:1) in
        let sl = Sched.Slack.analyze ddg in
        check Alcotest.bool "some critical" true
          (List.exists
             (fun op -> Sched.Slack.is_critical sl (Ir.Op.id op))
             (Ddg.Graph.ops_in_order ddg)));
    case "chain-has-zero-slack" (fun () ->
        (* pure chain: every op critical *)
        let b = Ir.Builder.create () in
        let x = Ir.Builder.load b f (Ir.Addr.element "x") in
        let y = Ir.Builder.unop b Mach.Opcode.Neg f x in
        Ir.Builder.store b f (Ir.Addr.element "y") y;
        let ddg = Ddg.Graph.of_loop (Ir.Builder.loop b ~name:"chain" ()) in
        let sl = Sched.Slack.analyze ddg in
        List.iter
          (fun op -> check Alcotest.int "slack 0" 0 (Sched.Slack.slack sl (Ir.Op.id op)))
          (Ddg.Graph.ops_in_order ddg));
    case "critical-path-matches-ddg" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.hydro ~unroll:2) in
        let sl = Sched.Slack.analyze ddg in
        check Alcotest.int "cp" (Ddg.Graph.critical_path_length ddg) (Sched.Slack.critical_path sl));
  ]

(* Reference model of a reservation table: every reservation is a
   (class, row, op) triple in one list, most recent first — the holders
   of a resource are read off by filtering it. *)
module Restab_model = struct
  type klass = KFu of int * Mach.Machine.fu_class | KPort of int | KBus

  type t = {
    machine : Mach.Machine.t;
    ii : int option;
    mutable held : (klass * int * int) list;
  }

  let create machine ii = { machine; ii; held = [] }
  let row t cycle = match t.ii with None -> cycle | Some ii -> cycle mod ii

  let cap t = function
    | KFu (_, fc) ->
        Option.value ~default:0 (List.assoc_opt fc t.machine.Mach.Machine.fu_mix)
    | KPort _ -> t.machine.Mach.Machine.copy_ports
    | KBus -> t.machine.Mach.Machine.busses

  let holders t k r =
    List.filter_map (fun (k', r', op) -> if k' = k && r' = r then Some op else None) t.held

  let room t k r = List.length (holders t k r) < cap t k

  let alternatives = function
    | Sched.Restab.Fu c -> [ KFu (c, Mach.Machine.General) ]
    | Sched.Restab.Fu_typed (c, alts) ->
        List.map (fun a -> KFu (c, a)) alts @ [ KFu (c, Mach.Machine.General) ]
    | Sched.Restab.Copy_to c -> [ KPort c; KBus ]

  let fits t ~cycle req =
    let r = row t cycle in
    match req with
    | Sched.Restab.Copy_to _ -> List.for_all (fun k -> room t k r) (alternatives req)
    | _ -> List.exists (fun k -> room t k r) (alternatives req)

  let reserve t ~cycle ~op req =
    if not (fits t ~cycle req) then invalid_arg "model: does not fit";
    let r = row t cycle in
    let claim k = t.held <- (k, r, op) :: t.held in
    match req with
    | Sched.Restab.Copy_to _ -> List.iter claim (alternatives req)
    | _ -> claim (List.find (fun k -> room t k r) (alternatives req))

  let release_op t ~op = t.held <- List.filter (fun (_, _, o) -> o <> op) t.held

  let conflicting_ops t ~cycle req =
    if fits t ~cycle req then []
    else
      let r = row t cycle in
      match req with
      | Sched.Restab.Copy_to _ ->
          List.filter_map
            (fun k ->
              if room t k r then None
              else match holders t k r with v :: _ -> Some v | [] -> None)
            (alternatives req)
          |> List.sort_uniq Int.compare
      | _ -> (
          match
            List.find_opt (fun k -> cap t k > 0 && holders t k r <> []) (alternatives req)
          with
          | Some k -> [ List.hd (holders t k r) ]
          | None -> [])

  let satisfiable t req =
    match req with
    | Sched.Restab.Copy_to _ -> List.for_all (fun k -> cap t k > 0) (alternatives req)
    | _ -> List.exists (fun k -> cap t k > 0) (alternatives req)
end

let model_machines =
  Mach.Machine.
    [
      m4x4e;
      ideal16;
      make ~name:"2x4-ozer" ~fu_mix:ozer_cluster_mix ~clusters:2 ~fus_per_cluster:4
        ~copy_model:Embedded ();
      make ~name:"4x4-ozer-copy" ~fu_mix:ozer_cluster_mix ~clusters:4 ~fus_per_cluster:4
        ~copy_model:Copy_unit ~busses:1 ();
    ]
  @ List.map
      (fun busses ->
        Mach.Machine.make ~clusters:4 ~fus_per_cluster:2 ~copy_model:Mach.Machine.Copy_unit
          ~copy_ports:2 ~busses ())
      [ 0; 1; 2 ]

(* One random table and 80 random operations on it, derived from [seed];
   true when the table and the model agree on every answer. *)
let restab_agrees_with_model seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let machine = pick model_machines in
  let ii = pick [ None; Some 1; Some 2; Some 3; Some 5 ] in
  let tab =
    match ii with
    | None -> Sched.Restab.create_flat machine
    | Some ii -> Sched.Restab.create_modulo machine ~ii
  in
  let model = Restab_model.create machine ii in
  let gen_req () =
    let c = Random.State.int rng machine.Mach.Machine.clusters in
    match Random.State.int rng 3 with
    | 0 -> Sched.Restab.Fu c
    | 1 ->
        Sched.Restab.Fu_typed
          ( c,
            List.filter
              (fun _ -> Random.State.bool rng)
              Mach.Machine.[ Integer; Float_fu; Memory ] )
    | _ -> Sched.Restab.Copy_to c
  in
  let outcome f = try Ok (f ()) with Invalid_argument _ -> Error () in
  let agree = ref true in
  for _ = 1 to 80 do
    let cycle = Random.State.int rng 8 and op = Random.State.int rng 10 in
    let req = gen_req () in
    let same a b = if a <> b then agree := false in
    match Random.State.int rng 5 with
    | 0 | 1 ->
        same
          (outcome (fun () -> Sched.Restab.reserve tab ~cycle ~op req))
          (outcome (fun () -> Restab_model.reserve model ~cycle ~op req))
    | 2 ->
        Sched.Restab.release_op tab ~op;
        Restab_model.release_op model ~op
    | 3 ->
        same (Sched.Restab.fits tab ~cycle req) (Restab_model.fits model ~cycle req);
        same (Sched.Restab.satisfiable tab req) (Restab_model.satisfiable model req)
    | _ ->
        same
          (Sched.Restab.conflicting_ops tab ~cycle req)
          (Restab_model.conflicting_ops model ~cycle req)
  done;
  !agree

let restab_tests =
  [
    case "fu-capacity" (fun () ->
        let t = Sched.Restab.create_flat m4x4e in
        for op = 0 to 3 do
          Sched.Restab.reserve t ~cycle:0 ~op (Sched.Restab.Fu 1)
        done;
        check Alcotest.bool "full" false (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Fu 1));
        check Alcotest.bool "other cluster free" true
          (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Fu 2));
        check Alcotest.bool "next cycle free" true
          (Sched.Restab.fits t ~cycle:1 (Sched.Restab.Fu 1)));
    case "modulo-wraps" (fun () ->
        let t = Sched.Restab.create_modulo m4x4e ~ii:2 in
        for op = 0 to 3 do
          Sched.Restab.reserve t ~cycle:0 ~op (Sched.Restab.Fu 0)
        done;
        check Alcotest.bool "cycle 2 = slot 0 full" false
          (Sched.Restab.fits t ~cycle:2 (Sched.Restab.Fu 0));
        check Alcotest.bool "cycle 3 = slot 1 free" true
          (Sched.Restab.fits t ~cycle:3 (Sched.Restab.Fu 0)));
    case "release-frees" (fun () ->
        let t = Sched.Restab.create_modulo m8x2e ~ii:1 in
        Sched.Restab.reserve t ~cycle:0 ~op:7 (Sched.Restab.Fu 0);
        Sched.Restab.reserve t ~cycle:0 ~op:8 (Sched.Restab.Fu 0);
        check Alcotest.bool "full" false (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Fu 0));
        Sched.Restab.release_op t ~op:7;
        check Alcotest.bool "freed" true (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Fu 0)));
    case "copy-unit-uses-ports-and-bus" (fun () ->
        let t = Sched.Restab.create_modulo m4x4c ~ii:1 in
        (* 2 ports per cluster, 4 busses: cluster 0 saturates at 2 copies *)
        Sched.Restab.reserve t ~cycle:0 ~op:0 (Sched.Restab.Copy_to 0);
        Sched.Restab.reserve t ~cycle:0 ~op:1 (Sched.Restab.Copy_to 0);
        check Alcotest.bool "ports full" false
          (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Copy_to 0));
        (* other clusters still have ports, busses remain (4 - 2 = 2) *)
        Sched.Restab.reserve t ~cycle:0 ~op:2 (Sched.Restab.Copy_to 1);
        Sched.Restab.reserve t ~cycle:0 ~op:3 (Sched.Restab.Copy_to 2);
        (* now 4 busses are used *)
        check Alcotest.bool "busses exhausted" false
          (Sched.Restab.fits t ~cycle:0 (Sched.Restab.Copy_to 3)));
    case "conflicting-ops-most-recent" (fun () ->
        let t = Sched.Restab.create_flat m8x2e in
        Sched.Restab.reserve t ~cycle:0 ~op:1 (Sched.Restab.Fu 0);
        Sched.Restab.reserve t ~cycle:0 ~op:2 (Sched.Restab.Fu 0);
        check Alcotest.(list int) "victim" [ 2 ]
          (Sched.Restab.conflicting_ops t ~cycle:0 (Sched.Restab.Fu 0)));
    case "request-for" (fun () ->
        let cop =
          Ir.Op.make ~dst:(vreg 1) ~srcs:[ vreg 2 ] ~id:0 ~opcode:Mach.Opcode.Copy ~cls:f ()
        in
        check Alcotest.bool "embedded copy is Fu" true
          (Sched.Restab.request_for m4x4e ~cluster:1 cop = Sched.Restab.Fu 1);
        check Alcotest.bool "copy-unit copy is port" true
          (Sched.Restab.request_for m4x4c ~cluster:1 cop = Sched.Restab.Copy_to 1));
    qcheck ~count:300 "agrees-with-list-model" gen_loop_seed restab_agrees_with_model;
  ]

let list_sched_tests =
  [
    case "paper-figure1-length-7" (fun () ->
        (* the Section 4.2 example on 2-wide unit-latency machine *)
        let b = Ir.Builder.create () in
        let r1 = Ir.Builder.load b f (Ir.Addr.scalar "xvel") in
        let r2 = Ir.Builder.load b f (Ir.Addr.scalar "t") in
        let r3 = Ir.Builder.load b f (Ir.Addr.scalar "xaccel") in
        let r4 = Ir.Builder.load b f (Ir.Addr.scalar "xpos") in
        let r5 = Ir.Builder.binop b Mach.Opcode.Mul f r1 r2 in
        let r6 = Ir.Builder.binop b Mach.Opcode.Add f r4 r5 in
        let r7 = Ir.Builder.binop b Mach.Opcode.Mul f r3 r2 in
        let half = Ir.Builder.load b f (Ir.Addr.scalar "c2") in
        let r8 = Ir.Builder.binop b Mach.Opcode.Div f r2 half in
        let r9 = Ir.Builder.binop b Mach.Opcode.Mul f r7 r8 in
        let r10 = Ir.Builder.binop b Mach.Opcode.Add f r6 r9 in
        Ir.Builder.store b f (Ir.Addr.scalar "xpos") r10;
        let fn = Ir.Builder.func b ~name:"ex" ~edges:[] in
        let blk = Ir.Func.entry fn in
        let ddg = Ddg.Graph.of_block ~latency:Mach.Latency.unit blk in
        let m = Mach.Machine.ideal ~latency:Mach.Latency.unit ~width:2 () in
        let s = Sched.List_sched.ideal ~machine:m ddg in
        check Alcotest.int "7 cycles" 7 (Sched.Schedule.issue_length s));
    case "ideal-schedules-are-valid" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            let s = Sched.List_sched.ideal ~machine:ideal16 ddg in
            match Sched.Check.flat ~machine:ideal16 ~cluster_of:all_zero_clusters ~ddg s with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) e)
          (sample_loops ()));
    case "width-1-is-sequential" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:1 in
        let ddg = Ddg.Graph.of_loop loop in
        let m = Mach.Machine.ideal ~width:1 () in
        let s = Sched.List_sched.ideal ~machine:m ddg in
        (* at most one op per cycle *)
        List.iter
          (fun (_, ops) -> check Alcotest.int "1 per cycle" 1 (List.length ops))
          (Sched.Schedule.instructions s));
    case "wider-machine-not-slower" (fun () ->
        let loop = Workload.Kernels.cmul ~unroll:2 in
        let ddg = Ddg.Graph.of_loop loop in
        let len w =
          Sched.Schedule.issue_length
            (Sched.List_sched.ideal ~machine:(Mach.Machine.ideal ~width:w ()) ddg)
        in
        check Alcotest.bool "mono" true (len 16 <= len 4 && len 4 <= len 1));
    case "multi-cluster-requires-cluster-of" (fun () ->
        let ddg = Ddg.Graph.of_loop (Workload.Kernels.vcopy ~unroll:1) in
        check Alcotest.bool "raises" true
          (try
             ignore (Sched.List_sched.schedule ~machine:m4x4e ddg);
             false
           with Invalid_argument _ -> true));
    qcheck ~count:40 "list-schedule-valid-on-random-loops" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ddg = Ddg.Graph.of_loop loop in
        let s = Sched.List_sched.ideal ~machine:ideal16 ddg in
        Sched.Check.flat ~machine:ideal16 ~cluster_of:all_zero_clusters ~ddg s = Ok ());
  ]

let modulo_tests =
  [
    case "achieves-min-ii-on-daxpy" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:4 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            check Alcotest.int "ii = mii" o.Sched.Modulo.mii o.Sched.Modulo.ii;
            check Alcotest.int "mii=2" 2 o.Sched.Modulo.mii);
    case "budget-escalations-spend-the-budget" (fun () ->
        (* An II is abandoned for "budget" only once its placement budget
           is spent, so an evicted op is always picked again. A tight
           budget on a narrow machine forces evictions and abandoned IIs. *)
        let machine = Mach.Machine.ideal ~width:2 () in
        let evictions = ref 0 and exhausted = ref 0 in
        List.iter
          (fun loop ->
            let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
            match Sched.Modulo.ideal ~obs ~budget_ratio:2 ~machine (Ddg.Graph.of_loop loop) with
            | None -> Alcotest.failf "%s: no schedule" (Ir.Loop.name loop)
            | Some o ->
                let budget_causes =
                  List.filter
                    (function
                      | Obs.Events.Ii_escalate { cause = "budget"; _ } -> true | _ -> false)
                    (Obs.Trace.events obs)
                in
                check Alcotest.int (Ir.Loop.name loop) o.Sched.Modulo.budget_exhausted
                  (List.length budget_causes);
                evictions := !evictions + o.Sched.Modulo.evictions;
                exhausted := !exhausted + o.Sched.Modulo.budget_exhausted)
          (sample_loops ());
        check Alcotest.bool "evictions happened" true (!evictions > 0);
        check Alcotest.bool "budgets ran out" true (!exhausted > 0));
    case "kernel-valid-on-samples" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            match Sched.Modulo.ideal ~machine:ideal16 ddg with
            | None -> Alcotest.failf "%s: no schedule" (Ir.Loop.name loop)
            | Some o -> (
                match
                  Sched.Check.kernel ~machine:ideal16 ~cluster_of:all_zero_clusters ~ddg
                    o.Sched.Modulo.kernel
                with
                | Ok () -> ()
                | Error e -> Alcotest.failf "%s: %s" (Ir.Loop.name loop) e))
          (sample_loops ~n:40 ()));
    case "recurrence-bound-ii" (fun () ->
        let loop = Workload.Kernels.first_order_rec ~unroll:1 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o -> check Alcotest.int "ii=recmii=4" 4 o.Sched.Modulo.ii);
    case "ii-never-below-mii" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            match Sched.Modulo.ideal ~machine:ideal16 ddg with
            | None -> ()
            | Some o -> check Alcotest.bool "ii>=mii" true (o.Sched.Modulo.ii >= o.Sched.Modulo.mii))
          (sample_loops ()));
    case "stage-count-sane" (fun () ->
        let loop = Workload.Kernels.hydro ~unroll:4 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            let k = o.Sched.Modulo.kernel in
            check Alcotest.bool "stages >= 1" true (Sched.Kernel.n_stages k >= 1);
            List.iter
              (fun (p : Sched.Schedule.placement) ->
                check Alcotest.bool "cycle within stages" true
                  (p.cycle < Sched.Kernel.n_stages k * Sched.Kernel.ii k))
              (Sched.Kernel.placements k));
    qcheck ~count:40 "modulo-valid-on-random-loops" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> false
        | Some o ->
            Sched.Check.kernel ~machine:ideal16 ~cluster_of:all_zero_clusters ~ddg
              o.Sched.Modulo.kernel
            = Ok ());
  ]

(* Every Rau decision over a fixed slice of the experiment, folded into
   one MD5: for the first 48 suite loops on each of the six paper
   configurations, the ideal and clustered outcomes (II, effort
   counters, every kernel placement) and the [sched.evict] chain the
   pipeline emitted. The expected digest was computed before the
   scheduler moved to dense arrays; any change in a placement, an
   eviction or its order changes it. *)
let decision_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let add_outcome tag (o : Sched.Modulo.outcome) =
    Printf.bprintf buf "%s ii=%d tried=%d evict=%d iis=%d exh=%d\n" tag o.ii
      o.placements_tried o.evictions o.iis_tried o.budget_exhausted;
    List.iter
      (fun (p : Sched.Schedule.placement) ->
        Printf.bprintf buf " %d@%d/%d" (Ir.Op.id p.op) p.cycle p.cluster)
      (Sched.Kernel.placements o.kernel);
    Buffer.add_char buf '\n'
  in
  let evictions = ref 0 in
  List.iter
    (fun loop ->
      List.iter
        (fun (cfg : Core.Experiment.config) ->
          Printf.bprintf buf "%s %s\n" (Ir.Loop.name loop) cfg.label;
          let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
          (match Partition.Driver.pipeline ~obs ~machine:cfg.machine loop with
          | Ok r ->
              add_outcome "ideal" r.ideal;
              add_outcome "clustered" r.clustered
          | Error e -> Printf.bprintf buf "error %s\n" (Verify.Stage_error.to_string e));
          Obs.Trace.iter_events
            (function
              | Obs.Events.Sched_evict { op; by; cycle; reason } ->
                  incr evictions;
                  Printf.bprintf buf "evict %d %d %d %s\n" op by cycle reason
              | _ -> ())
            obs)
        Core.Experiment.paper_configs)
    (Workload.Suite.loops ~n:48 ());
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !evictions)

let decision_tests =
  [
    case "rau-decisions-pinned" (fun () ->
        let digest, evictions = decision_digest () in
        check Alcotest.bool "evictions exercised" true (evictions > 0);
        check Alcotest.string "decision digest" "b837019990012cca4f9c2dbfe8380c55" digest);
  ]

(* The strongest scheduler test: executing the pipelined expansion must
   equal executing the loop sequentially. *)
let expand_equiv loop trips =
  let ddg = Ddg.Graph.of_loop loop in
  match Sched.Modulo.ideal ~machine:ideal16 ddg with
  | None -> Alcotest.failf "%s: no schedule" (Ir.Loop.name loop)
  | Some o ->
      let code = Sched.Expand.flatten ~kernel:o.Sched.Modulo.kernel ~loop ~trips in
      let sa = Ir.Eval.create () and sb = Ir.Eval.create () in
      seed_state sa loop;
      seed_state sb loop;
      Ir.Eval.run_loop sa ~trips loop;
      Ir.Eval.run_ops sb (Sched.Expand.ops code);
      if not (mem_equal sa sb) then
        Alcotest.failf "%s: memory differs\n%s" (Ir.Loop.name loop) (mem_diff sa sb);
      Ir.Vreg.Map.iter
        (fun src inst ->
          if not (Ir.Eval.value_equal (Ir.Eval.get_reg sa src) (Ir.Eval.get_reg sb inst)) then
            Alcotest.failf "%s: live-out %s differs" (Ir.Loop.name loop) (Ir.Vreg.to_string src))
        (Sched.Expand.live_out_map code)

let expand_tests =
  [
    case "flatten-equivalent-daxpy" (fun () -> expand_equiv (Workload.Kernels.daxpy ~unroll:2) 7);
    case "flatten-equivalent-reduction" (fun () -> expand_equiv (Workload.Kernels.dot ~unroll:2) 9);
    case "flatten-equivalent-recurrence" (fun () ->
        expand_equiv (Workload.Kernels.first_order_rec ~unroll:1) 6);
    case "flatten-equivalent-stencil" (fun () ->
        expand_equiv (Workload.Kernels.stencil3 ~unroll:2) 5);
    case "flatten-equivalent-euler" (fun () -> expand_equiv (Workload.Kernels.euler_step ~unroll:2) 6);
    case "flatten-equivalent-memory-recurrence" (fun () ->
        expand_equiv (Workload.Kernels.tridiag ~unroll:1) 8);
    case "speedup-above-1-for-parallel-loop" (fun () ->
        let loop = Workload.Kernels.daxpy ~unroll:4 in
        let ddg = Ddg.Graph.of_loop loop in
        match Sched.Modulo.ideal ~machine:ideal16 ddg with
        | None -> Alcotest.fail "no schedule"
        | Some o ->
            let code = Sched.Expand.flatten ~kernel:o.Sched.Modulo.kernel ~loop ~trips:20 in
            check Alcotest.bool "speedup > 2" true
              (Sched.Expand.speedup code ~latency:Mach.Latency.paper ~loop > 2.0));
    case "mve-factor-at-least-1" (fun () ->
        List.iter
          (fun loop ->
            let ddg = Ddg.Graph.of_loop loop in
            match Sched.Modulo.ideal ~machine:ideal16 ddg with
            | None -> ()
            | Some o ->
                check Alcotest.bool "mve>=1" true
                  (Sched.Expand.mve_factor ~kernel:o.Sched.Modulo.kernel ~loop >= 1))
          (sample_loops ()));
    case "trips-1-works" (fun () -> expand_equiv (Workload.Kernels.hydro ~unroll:1) 1);
    qcheck ~count:30 "flatten-equivalence-random" gen_loop_seed (fun seed ->
        let loop = loop_of_seed seed in
        expand_equiv loop (3 + (seed mod 5));
        true);
  ]

(* A body whose op ids are far apart schedules exactly like the same
   body numbered densely, in time that does not grow with the ids: the
   schedulers and the checker index by the DDG's id ranks. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sparse_id_tests =
  let loop = Option.get (Workload.Suite.by_name "daxpy-u4") in
  let renumber k =
    Ir.Loop.with_ops loop
      (List.map (fun op -> Ir.Op.with_id op (Ir.Op.id op * k)) (Ir.Loop.ops loop))
  in
  (* (original id, cycle, cluster) of every placement, sorted. *)
  let shape ~k placements =
    List.sort compare
      (List.map
         (fun (p : Sched.Schedule.placement) -> (Ir.Op.id p.op / k, p.cycle, p.cluster))
         placements)
  in
  let within what seconds =
    if seconds > 0.2 then Alcotest.failf "%s took %.3f s" what seconds
  in
  List.map
    (fun k ->
      case (Printf.sprintf "ids-times-%d" k) (fun () ->
          let dense = Ddg.Graph.of_loop loop and sparse = Ddg.Graph.of_loop (renumber k) in
          let flat d = Sched.List_sched.ideal ~machine:ideal16 d in
          let kernel d = (Option.get (Sched.Modulo.ideal ~machine:ideal16 d)).Sched.Modulo.kernel in
          let flat_s, t = timed (fun () -> flat sparse) in
          within "List_sched.ideal" t;
          check
            Alcotest.(list (triple int int int))
            "flat schedule"
            (shape ~k:1 (Sched.Schedule.placements (flat dense)))
            (shape ~k (Sched.Schedule.placements flat_s));
          let kernel_s, t = timed (fun () -> kernel sparse) in
          within "Modulo.ideal" t;
          check Alcotest.int "ii" (Sched.Kernel.ii (kernel dense)) (Sched.Kernel.ii kernel_s);
          check
            Alcotest.(list (triple int int int))
            "kernel"
            (shape ~k:1 (Sched.Kernel.placements (kernel dense)))
            (shape ~k (Sched.Kernel.placements kernel_s));
          let diags, t =
            timed (fun () ->
                Verify.Sched_check.kernel ~machine:ideal16 ~ddg:sparse kernel_s
                @ Verify.Sched_check.flat ~machine:ideal16 ~ddg:sparse flat_s)
          in
          within "Sched_check" t;
          check Alcotest.int "no findings" 0 (List.length diags)))
    [ 1009; 1000003 ]

let suite =
  [
    ("sched.schedule", schedule_tests);
    ("sched.sparse-ids", sparse_id_tests);
    ("sched.slack", slack_tests);
    ("sched.restab", restab_tests);
    ("sched.list", list_sched_tests);
    ("sched.modulo", modulo_tests);
    ("sched.decisions", decision_tests);
    ("sched.expand", expand_tests);
  ]
