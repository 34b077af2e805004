open Testlib

(* The resilient driver (lib/robust): one crafted test per ladder rung,
   fault-injection behaviour per fault, and the deterministic stress
   harness with the Verify analyzers as oracle. *)

let cfg = Robust.Driver.default_config

let run ?config ?hooks ~machine loop = Robust.Driver.run ?config ?hooks ~machine loop

let expect_ok label = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" label (Verify.Stage_error.to_string e)

let expect_error label = function
  | Ok (r : Robust.Driver.result) ->
      Alcotest.failf "%s: unexpectedly succeeded on rung %s" label
        (Robust.Driver.rung_name r.Robust.Driver.rung)
  | Error e -> e

let no_error_diags r =
  List.for_all
    (fun d -> d.Verify.Diag.severity <> Verify.Diag.Error)
    (Robust.Driver.verify_diags r)

(* hydro-u2 on a 2-cluster machine with 4-register banks spills but
   still pipelines (established empirically; pinned by the test). *)
let tight2 =
  Mach.Machine.make ~name:"tight2" ~regs_per_bank:4 ~clusters:2 ~fus_per_cluster:8
    ~copy_model:Mach.Machine.Embedded ()

let ladder_tests =
  [
    case "clean-input-uses-first-rung" (fun () ->
        let r = expect_ok "daxpy" (run ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { partitioner; budget_ratio; respilled } ->
            check Alcotest.string "partitioner" "greedy" partitioner;
            check Alcotest.int "budget" (List.hd cfg.Robust.Driver.budget_schedule) budget_ratio;
            check Alcotest.bool "no respill" false respilled
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.int "no failed attempts" 0 (List.length r.Robust.Driver.attempts);
        check Alcotest.bool "verifies" true (no_error_diags r));
    case "budget-escalation-recovers" (fun () ->
        (* budget_ratio 0 gives the scheduler no placement budget, so the
           first rung must fail and the ladder escalate to budget 10. *)
        let config = { cfg with Robust.Driver.budget_schedule = [ 0; 10 ] } in
        let r = expect_ok "daxpy" (run ~config ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { budget_ratio; _ } ->
            check Alcotest.int "escalated budget" 10 budget_ratio
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.bool "attempt log mentions the exhausted budget" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) -> contains a.Verify.Stage_error.rung "budget=0")
             r.Robust.Driver.attempts));
    case "partitioner-fallback-on-bad-custom" (fun () ->
        (* A partitioner emitting out-of-range banks is rejected (PT002)
           and the chain falls through to greedy. *)
        let bad = Partition.Driver.Custom (fun _ ddg _ ->
            let regs =
              List.fold_left
                (fun acc op ->
                  List.fold_left (fun s r -> Ir.Vreg.Set.add r s) acc
                    (Ir.Op.defs op @ Ir.Op.uses op))
                Ir.Vreg.Set.empty (Ddg.Graph.ops_in_order ddg)
            in
            Partition.Assign.of_list (List.map (fun r -> (r, 99)) (Ir.Vreg.Set.elements regs)))
        in
        let config =
          { cfg with Robust.Driver.partitioners =
              [ ("bad", bad); ("greedy", Partition.Driver.Greedy Rcg.Weights.default) ] }
        in
        let r = expect_ok "dot" (run ~config ~machine:m4x4e (Workload.Kernels.dot ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { partitioner; _ } ->
            check Alcotest.string "fell through to greedy" "greedy" partitioner
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.bool "PT002 logged" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) -> a.Verify.Stage_error.at_code = "PT002")
             r.Robust.Driver.attempts));
    case "raising-partitioner-is-contained" (fun () ->
        let bomb = Partition.Driver.Custom (fun _ _ _ -> invalid_arg "partitioner bomb") in
        let config =
          { cfg with Robust.Driver.partitioners =
              [ ("bomb", bomb); ("greedy", Partition.Driver.Greedy Rcg.Weights.default) ] }
        in
        let r = expect_ok "dot" (run ~config ~machine:m4x4e (Workload.Kernels.dot ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { partitioner; _ } ->
            check Alcotest.string "fell through to greedy" "greedy" partitioner
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.bool "bomb logged as attempt" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) ->
               contains a.Verify.Stage_error.detail "partitioner bomb")
             r.Robust.Driver.attempts));
    case "spill-and-reschedule-rung" (fun () ->
        let r = expect_ok "hydro" (run ~machine:tight2 (Workload.Kernels.hydro ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { respilled; _ } ->
            check Alcotest.bool "respilled" true respilled
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.bool "spills counted" true (r.Robust.Driver.spill_count > 0);
        check Alcotest.bool "verifies after respill" true (no_error_diags r));
    case "single-bank-merge-rung" (fun () ->
        (* no pipelined partitioners at all -> the merge rung carries it *)
        let config = { cfg with Robust.Driver.partitioners = [] } in
        let r = expect_ok "daxpy" (run ~config ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Single_bank _ -> ()
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.int "merge needs no copies" 0 r.Robust.Driver.n_copies;
        check Alcotest.bool "verifies" true (no_error_diags r));
    case "non-pipelined-surrender-rung" (fun () ->
        (* zero budget everywhere kills every modulo rung; the flat
           list-scheduled surrender must still produce verified code *)
        let config = { cfg with Robust.Driver.budget_schedule = [ 0 ] } in
        let r = expect_ok "daxpy" (run ~config ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Non_pipelined -> ()
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        (match r.Robust.Driver.code with
        | Robust.Driver.Flat _ -> ()
        | Robust.Driver.Kernel _ -> Alcotest.fail "surrender must emit a flat schedule");
        (* budget 0 kills the ideal schedule up front, so the modulo
           rungs never run: the log holds the ideal-stage failure *)
        check Alcotest.bool "ideal failure logged" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) ->
               a.Verify.Stage_error.at_stage = Verify.Stage_error.Ideal_schedule)
             r.Robust.Driver.attempts);
        check Alcotest.bool "verifies" true (no_error_diags r));
    case "surrender-disabled-fails-structurally" (fun () ->
        let config =
          { cfg with Robust.Driver.budget_schedule = [ 0 ]; allow_non_pipelined = false }
        in
        let e =
          expect_error "daxpy"
            (run ~config ~machine:m4x4e (Workload.Kernels.daxpy ~unroll:2))
        in
        check Alcotest.bool "failed at the ideal schedule" true
          (e.Verify.Stage_error.stage = Verify.Stage_error.Ideal_schedule);
        check Alcotest.bool "attempt trace kept" true
          (List.length e.Verify.Stage_error.attempts >= 1);
        check Alcotest.bool "trace renders" true
          (List.length (Verify.Stage_error.trace e) = List.length e.Verify.Stage_error.attempts));
    case "malformed-ir-rejected-at-the-gate" (fun () ->
        let prng = Util.Prng.create 7 in
        let armed = Robust.Inject.arm ~prng [ Robust.Inject.Malform_ir ] in
        let e =
          expect_error "daxpy"
            (run ~hooks:armed.Robust.Inject.hooks ~machine:m4x4e
               (Workload.Kernels.daxpy ~unroll:2))
        in
        check Alcotest.string "IR004" "IR004" e.Verify.Stage_error.code;
        check Alcotest.bool "stage is ir-input" true
          (e.Verify.Stage_error.stage = Verify.Stage_error.Ir_input);
        check Alcotest.int "rejected before any rung ran" 0
          (List.length e.Verify.Stage_error.attempts));
  ]

(* The ladder's first rung and Partition.Driver.pipeline run the same
   steps (assign, copy insertion, rebuild, Rau at budget 10): where the
   ladder settles on that rung without spilling, its kernel II, copy
   count and rewritten body must be the pipeline's. Every twentieth loop of
   the seed-1995 suite (kernels and generated loops) across the six
   paper configurations; the whole suite agrees too, but takes a
   minute. *)
let pipeline_equivalence_tests =
  [
    case "first-rung-matches-pipeline" (fun () ->
        let first_rung =
          Robust.Driver.Pipelined { partitioner = "greedy"; budget_ratio = 10; respilled = false }
        in
        let compared = ref 0 in
        List.iter
          (fun (c : Core.Experiment.config) ->
            let machine = c.Core.Experiment.machine in
            List.iter
              (fun loop ->
                match Robust.Driver.run ~machine loop with
                | Ok r
                  when r.Robust.Driver.rung = first_rung && r.Robust.Driver.spill_count = 0 -> (
                    incr compared;
                    let label = Ir.Loop.name loop ^ " on " ^ machine.Mach.Machine.name in
                    match (Partition.Driver.pipeline ~machine loop, r.Robust.Driver.code) with
                    | Ok p, Robust.Driver.Kernel { ii; _ } ->
                        check Alcotest.int (label ^ ": II")
                          p.Partition.Driver.clustered.Sched.Modulo.ii ii;
                        check Alcotest.int (label ^ ": copies") p.Partition.Driver.n_copies
                          r.Robust.Driver.n_copies;
                        check
                          (Alcotest.list Alcotest.string)
                          (label ^ ": rewritten body")
                          (List.map Ir.Op.to_string (Ir.Loop.ops p.Partition.Driver.rewritten))
                          (List.map Ir.Op.to_string (Ir.Loop.ops r.Robust.Driver.rewritten))
                    | Error e, _ -> Alcotest.failf "%s: %s" label (Verify.Stage_error.to_string e)
                    | Ok _, Robust.Driver.Flat _ -> Alcotest.failf "%s: flat code" label)
                | _ -> ())
              (List.filteri (fun i _ -> i mod 20 = 0) (Workload.Suite.loops ~seed:1995 ())))
          Core.Experiment.paper_configs;
        check Alcotest.bool "some pairs compared" true (!compared > 0));
  ]

(* Deadline pressure: the ?cancel poll must turn into a structured
   PIPE008 error at the next stage boundary — never a hang, never a
   partial artifact — and the attempt trace must keep every rung tried
   before the deadline, including the one cancellation interrupted. *)
let deadline_tests =
  [
    case "immediate-deadline-is-a-structured-error" (fun () ->
        let e =
          expect_error "daxpy"
            (Robust.Driver.run ~cancel:(fun () -> true) ~machine:m4x4e
               (Workload.Kernels.daxpy ~unroll:2))
        in
        check Alcotest.string "PIPE008" Partition.Driver.deadline_code
          e.Verify.Stage_error.code;
        check Alcotest.int "no rung ever started" 0
          (List.length e.Verify.Stage_error.attempts);
        check Alcotest.bool "message names the deadline" true
          (contains e.Verify.Stage_error.message "deadline"));
    case "cancel-mid-ladder-keeps-every-attempt" (fun () ->
        (* Two exploding partitioners ahead of greedy; the cancel poll
           fires once both have failed, so the ladder is abandoned just
           before the rung that would have succeeded. The trace must
           hold both failed rungs, in order. *)
        let rungs_failed = ref 0 in
        let boom name =
          (name, Partition.Driver.Custom (fun _ _ _ ->
               incr rungs_failed;
               invalid_arg (name ^ " exploded")))
        in
        let config =
          { cfg with Robust.Driver.partitioners =
              [ boom "boom1"; boom "boom2";
                ("greedy", Partition.Driver.Greedy Rcg.Weights.default) ];
            budget_schedule = [ 10 ] }
        in
        let e =
          expect_error "dot"
            (Robust.Driver.run ~config
               ~cancel:(fun () -> !rungs_failed >= 2)
               ~machine:m4x4e (Workload.Kernels.dot ~unroll:2))
        in
        check Alcotest.string "PIPE008" Partition.Driver.deadline_code
          e.Verify.Stage_error.code;
        let rungs =
          List.map (fun (a : Verify.Stage_error.attempt) -> a.Verify.Stage_error.rung)
            e.Verify.Stage_error.attempts
        in
        check Alcotest.int "both interrupted rungs traced" 2 (List.length rungs);
        check Alcotest.bool "boom1 first" true (contains (List.nth rungs 0) "boom1");
        check Alcotest.bool "boom2 second" true (contains (List.nth rungs 1) "boom2"));
    case "saturated-ladder-traces-every-rung-tried" (fun () ->
        (* copy_saturation 0.0 rejects every partitioned rung of a
           copy-needing loop with PT005; the single-bank merge rung then
           carries it. The result's trace must list one attempt per
           partitioner x budget — proof the whole ladder was walked. *)
        let config = { cfg with Robust.Driver.copy_saturation = Some 0.0 } in
        let r = expect_ok "cmul" (run ~config ~machine:m4x4e (Workload.Kernels.cmul ~unroll:2)) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Single_bank _ -> ()
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        let expected =
          List.length cfg.Robust.Driver.partitioners
          * List.length cfg.Robust.Driver.budget_schedule
        in
        let saturated =
          List.filter
            (fun (a : Verify.Stage_error.attempt) -> a.Verify.Stage_error.at_code = "PT005")
            r.Robust.Driver.attempts
        in
        check Alcotest.int "one PT005 attempt per partitioned rung" expected
          (List.length saturated));
    case "deadline-token-fires-and-latches" (fun () ->
        (* A real Engine.Cancel token on a hand-cranked clock: each poll
           advances time 0.2 s against a 0.5 s deadline, so the third
           poll trips it. The run must return PIPE008 (not hang, not
           raise) and the token must stay cancelled afterwards. *)
        let t = ref 0.0 in
        let token = Engine.Cancel.make ~deadline:0.5 ~clock:(fun () -> !t) () in
        let cancel () =
          t := !t +. 0.2;
          Engine.Cancel.guard token ()
        in
        let e =
          expect_error "daxpy"
            (Robust.Driver.run ~cancel ~machine:m4x4e
               (Workload.Kernels.daxpy ~unroll:2))
        in
        check Alcotest.string "PIPE008" Partition.Driver.deadline_code
          e.Verify.Stage_error.code;
        check Alcotest.bool "token latched" true (Engine.Cancel.cancelled token);
        (match Engine.Cancel.remaining token with
        | Some s -> check Alcotest.bool "past the deadline" true (s < 0.0)
        | None -> Alcotest.fail "token lost its deadline"));
    case "cancellation-leaves-no-partial-state" (fun () ->
        (* A cancelled run then a clean rerun of the same loop: the
           second run must behave exactly as if the first never
           happened — first rung, empty attempt log, verified code. *)
        let loop = Workload.Kernels.daxpy ~unroll:2 in
        let _ =
          expect_error "cancelled" (Robust.Driver.run ~cancel:(fun () -> true) ~machine:m4x4e loop)
        in
        let r = expect_ok "rerun" (run ~machine:m4x4e loop) in
        (match r.Robust.Driver.rung with
        | Robust.Driver.Pipelined { partitioner; _ } ->
            check Alcotest.string "first rung again" "greedy" partitioner
        | rung -> Alcotest.failf "wrong rung: %s" (Robust.Driver.rung_name rung));
        check Alcotest.int "attempt log is fresh" 0 (List.length r.Robust.Driver.attempts);
        check Alcotest.bool "verifies" true (no_error_diags r));
  ]

(* One armed run; returns (fired, result). cmul-u2 on m4x4e needs 12
   copies, so every transient fault (kernel, copy, assignment) finds an
   artifact to corrupt. *)
let armed_run ?(seed = 11) ?(loop = Workload.Kernels.cmul ~unroll:2) ?(machine = m4x4e) fault =
  let prng = Util.Prng.create seed in
  let armed = Robust.Inject.arm ~prng [ fault ] in
  let res = run ~hooks:armed.Robust.Inject.hooks ~machine loop in
  (armed.Robust.Inject.fired (), res)

let inject_tests =
  [
    case "recoverable-faults-fire-and-recover" (fun () ->
        List.iter
          (fun fault ->
            let name = Robust.Inject.fault_name fault in
            let fired, res = armed_run fault in
            check Alcotest.bool (name ^ " fired exactly once") true
              (fired = [ fault ]);
            let r = expect_ok name res in
            check Alcotest.bool (name ^ ": recovered code verifies") true
              (no_error_diags r))
          Robust.Inject.recoverable);
    case "corrupt-kernel-logs-sch001" (fun () ->
        let _, res = armed_run Robust.Inject.Corrupt_kernel in
        let r = expect_ok "cmul" res in
        check Alcotest.bool "SCH001 in the attempt log" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) -> a.Verify.Stage_error.at_code = "SCH001")
             r.Robust.Driver.attempts));
    case "drop-copy-logs-cross-bank-operand" (fun () ->
        let _, res = armed_run Robust.Inject.Drop_copy in
        let r = expect_ok "cmul" res in
        check Alcotest.bool "PT003 in the attempt log" true
          (List.exists
             (fun (a : Verify.Stage_error.attempt) -> a.Verify.Stage_error.at_code = "PT003")
             r.Robust.Driver.attempts));
    case "shrunken-banks-fail-cleanly" (fun () ->
        let fired, res = armed_run (Robust.Inject.Shrink_banks 1) in
        check Alcotest.bool "fired" true (fired = [ Robust.Inject.Shrink_banks 1 ]);
        let e = expect_error "cmul" res in
        check Alcotest.bool "structured allocation failure" true
          (e.Verify.Stage_error.stage = Verify.Stage_error.Allocation);
        check Alcotest.bool "full ladder was tried" true
          (List.length e.Verify.Stage_error.attempts > 0));
    case "faults-fire-once-across-the-ladder" (fun () ->
        (* even though recovery re-runs stages, a transient fault must
           corrupt exactly one artifact *)
        List.iter
          (fun fault ->
            let fired, _ = armed_run fault in
            check Alcotest.int (Robust.Inject.fault_name fault) 1 (List.length fired))
          Robust.Inject.recoverable);
    case "injection-is-deterministic" (fun () ->
        let outcome fault =
          let fired, res = armed_run ~seed:23 fault in
          let tag =
            match res with
            | Ok r -> "ok:" ^ Robust.Driver.rung_name r.Robust.Driver.rung
            | Error e -> "err:" ^ e.Verify.Stage_error.code
          in
          (List.map Robust.Inject.fault_name fired, tag)
        in
        List.iter
          (fun fault ->
            let a = outcome fault and b = outcome fault in
            check
              Alcotest.(pair (list string) string)
              (Robust.Inject.fault_name fault) a b)
          Robust.Inject.all);
  ]

let synthetic_trial outcome =
  {
    Robust.Stress.index = 0;
    loop_name = "l";
    machine_name = "m";
    plan = [];
    fired = [];
    rung = None;
    n_attempts = 0;
    error = None;
    outcome;
  }

let stress_tests =
  [
    slow_case "fuzz-200-trials-raise-free-and-verified" (fun () ->
        (* the acceptance sweep: fixed seed, faults on, fatal included.
           No raise may escape, every emitted schedule must satisfy the
           independently re-run analyzers, and unsalvageable trials must
           end in structured errors. *)
        let s = Robust.Stress.run ~seed:1995 ~trials:200 () in
        check Alcotest.int "no violations" 0 (List.length s.Robust.Stress.violations);
        check Alcotest.int "no unrecovered" 0 (List.length s.Robust.Stress.unrecovered);
        check Alcotest.int "exit code" 0 (Robust.Stress.exit_code s);
        check Alcotest.int "all trials accounted for" 200
          (s.Robust.Stress.clean + s.Robust.Stress.recovered + s.Robust.Stress.failed_clean);
        check Alcotest.bool "faults actually recovered" true (s.Robust.Stress.recovered > 0);
        check Alcotest.bool "fatal faults exercised" true (s.Robust.Stress.failed_clean > 0);
        (* every structured failure names a stage and carries a code *)
        List.iter
          (fun (t : Robust.Stress.trial) ->
            match t.Robust.Stress.error with
            | None -> ()
            | Some e ->
                check Alcotest.bool "error has a code" true
                  (String.length e.Verify.Stage_error.code > 0))
          s.Robust.Stress.trials);
    case "same-seed-same-report" (fun () ->
        let a = Robust.Stress.run ~seed:42 ~trials:40 () in
        let b = Robust.Stress.run ~seed:42 ~trials:40 () in
        check Alcotest.string "byte-identical report"
          (Robust.Stress.report ~verbose:true a)
          (Robust.Stress.report ~verbose:true b));
    case "report-ends-with-totals" (fun () ->
        let s = Robust.Stress.run ~seed:3 ~trials:5 () in
        check Alcotest.bool "totals line present" true
          (contains (Robust.Stress.report s) "totals: 5 trials"));
    case "exit-codes-follow-the-contract" (fun () ->
        let summary ?(unrecovered = []) ?(violations = []) () =
          {
            Robust.Stress.trials = [];
            clean = 0;
            recovered = 0;
            failed_clean = 0;
            unrecovered;
            violations;
          }
        in
        check Alcotest.int "clean run is 0" 0 (Robust.Stress.exit_code (summary ()));
        check Alcotest.int "unrecovered is 1" 1
          (Robust.Stress.exit_code
             (summary ~unrecovered:[ synthetic_trial Robust.Stress.Unrecovered ] ()));
        check Alcotest.int "violation is 2" 2
          (Robust.Stress.exit_code
             (summary
                ~unrecovered:[ synthetic_trial Robust.Stress.Unrecovered ]
                ~violations:[ synthetic_trial (Robust.Stress.Violation "boom") ]
                ())));
  ]

let suite =
  [
    ("robust.ladder", ladder_tests);
    ("robust.equivalence", pipeline_equivalence_tests);
    ("robust.deadline", deadline_tests);
    ("robust.inject", inject_tests);
    ("robust.stress", stress_tests);
  ]
