type rung =
  | Pipelined of { partitioner : string; budget_ratio : int; respilled : bool }
  | Single_bank of { budget_ratio : int; respilled : bool }
  | Non_pipelined

let rung_name = function
  | Pipelined { partitioner; budget_ratio; respilled } ->
      Printf.sprintf "pipelined(%s, budget=%d%s)" partitioner budget_ratio
        (if respilled then ", respill" else "")
  | Single_bank { budget_ratio; respilled } ->
      Printf.sprintf "single-bank(budget=%d%s)" budget_ratio
        (if respilled then ", respill" else "")
  | Non_pipelined -> "non-pipelined"

type code =
  | Kernel of { kernel : Sched.Kernel.t; ii : int; ideal_ii : int }
  | Flat of Sched.Schedule.t

type result = {
  loop : Ir.Loop.t;
  machine : Mach.Machine.t;
  rewritten : Ir.Loop.t;
  assignment : Partition.Assign.t;
  code : code;
  alloc : Regalloc.Alloc.t;
  rung : rung;
  n_copies : int;
  spill_count : int;
  attempts : Verify.Stage_error.attempt list;
  diags : Verify.Diag.t list;
}

type hooks = {
  on_loop : Ir.Loop.t -> Ir.Loop.t;
  on_machine : Mach.Machine.t -> Mach.Machine.t;
  on_assignment : Partition.Assign.t -> Partition.Assign.t;
  on_rewritten : Ir.Loop.t -> Ir.Loop.t;
  on_kernel : Sched.Kernel.t -> Sched.Kernel.t;
}

let no_hooks =
  {
    on_loop = Fun.id;
    on_machine = Fun.id;
    on_assignment = Fun.id;
    on_rewritten = Fun.id;
    on_kernel = Fun.id;
  }

type config = {
  partitioners : (string * Partition.Driver.partitioner) list;
  budget_schedule : int list;
  copy_saturation : float option;
  spill_rounds : int list;
  allow_non_pipelined : bool;
}

let default_config =
  {
    partitioners =
      [
        ("greedy", Partition.Driver.Greedy Rcg.Weights.default);
        ("uas", Partition.Driver.Uas);
        ("bug", Partition.Driver.Bug);
      ];
    budget_schedule = [ 10; 40 ];
    copy_saturation = None;
    spill_rounds = [ 8; 32 ];
    allow_non_pipelined = true;
  }

(* ------------------------------------------------------------------ *)
(* Verification oracle                                                 *)

let alloc_view (a : Regalloc.Alloc.t) =
  {
    Verify.Pipeline.code = a.Regalloc.Alloc.code;
    mapping = a.Regalloc.Alloc.mapping;
    live_out = a.Regalloc.Alloc.live_out;
  }

(* Every applicable analyzer over the result's artifacts. The ladder
   hands in its memo and the DDGs its fail-fast check used (the source
   loop's and the emitted body's), so what that check already checked
   is not checked again; without them everything is derived afresh. *)
let diags ?memo ?source_ddg ?ddg (r : result) =
  let m = r.machine in
  let ddg_r =
    match ddg with
    | Some d -> d
    | None -> Ddg.Graph.of_loop ~latency:m.Mach.Machine.latency r.rewritten
  in
  let stages =
    {
      (Verify.Pipeline.stages ~machine:m r.loop) with
      Verify.Pipeline.partition = Some (r.assignment, r.rewritten);
      alloc = Some (alloc_view r.alloc);
    }
  in
  match r.code with
  | Kernel { kernel; _ } ->
      Verify.Pipeline.run ?memo ?source_ddg
        { stages with Verify.Pipeline.clustered = Some (ddg_r, kernel) }
  | Flat sched ->
      Verify.Pipeline.run ?memo ?source_ddg stages
      @ Verify.Sched_check.flat ~machine:m ~ddg:ddg_r sched

let verify_diags r = diags r

(* ------------------------------------------------------------------ *)
(* The ladder                                                          *)

let run ?obs ?(cancel = fun () -> false) ?(config = default_config) ?(hooks = no_hooks)
    ~machine loop =
  let m : Mach.Machine.t = hooks.on_machine machine in
  let loop = hooks.on_loop loop in
  let subject = Ir.Loop.name loop in
  Obs.Trace.span obs "ladder"
    ~attrs:[ ("loop", subject); ("machine", m.Mach.Machine.name) ]
  @@ fun () ->
  let budgets = if config.budget_schedule = [] then [ 10 ] else config.budget_schedule in
  let spill_rounds = if config.spill_rounds = [] then [ 8 ] else config.spill_rounds in
  let attempts = ref [] (* newest first *) in
  (* Checks of this run's artifacts, shared by the up-front IR check,
     every rung's fail-fast check and final verification. *)
  let memo = Verify.Pipeline.memo () in
  let log ?code ~rung stage detail =
    attempts := Verify.Stage_error.attempt ~rung ?code stage detail :: !attempts
  in
  (* Failures inside one rung carry (stage, optional code, detail). *)
  let ( let* ) = Stdlib.Result.bind in
  let stage_fail ?code stage detail = Error (stage, code, detail) in
  let step = function
    | Ok x -> Ok x
    | Error (e : Verify.Stage_error.t) ->
        stage_fail ~code:e.Verify.Stage_error.code e.Verify.Stage_error.stage
          e.Verify.Stage_error.message
  in
  (* Cooperative cancellation: polled at stage boundaries inside every
     rung and between rungs. A fired token turns the next boundary into
     an ordinary stage failure carrying the deadline code, so the rung
     unwinds through the same path as any other failure — attempt
     logged, no artifact escapes — and the ladder stops descending. *)
  let deadline_code = Partition.Driver.deadline_code in
  let guard stage =
    if cancel () then stage_fail ~code:deadline_code stage "deadline exceeded" else Ok ()
  in
  let deadline_error () =
    let stage =
      match !attempts with
      | (a : Verify.Stage_error.attempt) :: _ -> a.Verify.Stage_error.at_stage
      | [] -> Verify.Stage_error.Ideal_schedule
    in
    Error
      (Verify.Stage_error.make
         ~attempts:(List.rev !attempts)
         ~code:deadline_code ~stage ~subject
         (Printf.sprintf "deadline exceeded; ladder abandoned after %d attempts"
            (List.length !attempts)))
  in
  let insert_copies assignment =
    match Partition.Copies.insert_loop ~machine:m ~assignment loop with
    | ins -> Ok ins
    | exception Invalid_argument msg -> stage_fail Verify.Stage_error.Copy_insertion msg
  in
  let modulo_schedule ?(what = "") ~budget (rb : Partition.Driver.rebuilt) =
    match
      Sched.Modulo.schedule ?obs ~budget_ratio:budget ~cluster_of:rb.cluster_of ~machine:m
        ~mii:rb.mii rb.ddg
    with
    | Some o -> Ok o
    | None ->
        stage_fail Verify.Stage_error.Clustered_schedule
          (Printf.sprintf "no feasible II%s (MII %d, budget_ratio %d)" what rb.mii budget)
    | exception Invalid_argument msg -> stage_fail Verify.Stage_error.Clustered_schedule msg
  in
  let list_schedule (rb : Partition.Driver.rebuilt) =
    match Sched.List_sched.schedule ~cluster_of:rb.cluster_of ~machine:m rb.ddg with
    | s -> Ok s
    | exception Invalid_argument msg -> stage_fail Verify.Stage_error.Clustered_schedule msg
  in
  (* Step 5, with escalating spill rounds; logs intermediate failures. *)
  let allocate_stage ~rung ~assignment body =
    let rec go = function
      | [] -> assert false (* spill_rounds is non-empty *)
      | mr :: rest -> (
          match
            Regalloc.Alloc.allocate_loop ?obs ~max_rounds:mr ~machine:m ~assignment body
          with
          | Ok a -> Ok a
          | Error e when rest = [] ->
              stage_fail ~code:e.Verify.Stage_error.code Verify.Stage_error.Allocation
                e.Verify.Stage_error.message
          | Error e ->
              log ~code:e.Verify.Stage_error.code ~rung Verify.Stage_error.Allocation
                (Printf.sprintf "%s (max_rounds %d)" e.Verify.Stage_error.message mr);
              go rest)
    in
    go spill_rounds
  in
  (* The allocator rewrote the body, so code scheduled before spilling no
     longer matches the code we would emit: the spilled body is
     rebuilt and rescheduled. *)
  let spilled (a : Regalloc.Alloc.t) =
    match
      Ir.Loop.make ~depth:(Ir.Loop.depth loop) ~live_out:a.Regalloc.Alloc.live_out
        ~trip_count:(Ir.Loop.trip_count loop) ~name:(Ir.Loop.name loop) a.Regalloc.Alloc.code
    with
    | sloop ->
        let* rb =
          step (Partition.Driver.rebuild ~machine:m ~assignment:a.Regalloc.Alloc.assignment sloop)
        in
        Ok (sloop, rb)
    | exception Invalid_argument msg ->
        stage_fail Verify.Stage_error.Allocation ("spill-rewritten body is malformed: " ^ msg)
  in
  let check diags =
    match Verify.Diag.errors diags with
    | [] -> Ok diags
    | first :: _ as errs ->
        stage_fail ~code:first.Verify.Diag.code Verify.Stage_error.Verification
          (Printf.sprintf "%s%s" (Verify.Diag.to_string first)
             (match List.length errs - 1 with
             | 0 -> ""
             | n -> Printf.sprintf " (and %d more errors)" n))
  in
  let finish ~rung ~code ~n_copies ~source_ddg ~rewritten ~ddg (alloc : Regalloc.Alloc.t) =
    let candidate =
      {
        loop; machine = m; rewritten; assignment = alloc.Regalloc.Alloc.assignment; code; alloc;
        rung; n_copies; spill_count = alloc.Regalloc.Alloc.spill_count; attempts = [];
        diags = [];
      }
    in
    let* () = guard Verify.Stage_error.Verification in
    (* The oracle has the final word regardless of which rung we came by:
       every analyzer runs over the emitted artifacts, and only the
       checks of artifacts this run already checked (the source loop,
       an unspilled rung's partition and kernel, a body and DDG already
       analysed) are reused. *)
    let* diags = check (diags ~memo ~source_ddg ~ddg candidate) in
    Ok { candidate with diags; attempts = List.rev !attempts }
  in
  (* A rung's outcome: the result, or its failure logged under [rung]. *)
  let settle ~rung = function
    | Ok r -> Some r
    | Error (stage, code, detail) ->
        Obs.Trace.incr obs ~label:rung Obs.Counter.Ladder_rung_failed 1;
        log ?code ~rung stage detail;
        None
  in
  (* One modulo-scheduled rung: the whole framework from partitioning on. *)
  let attempt_modulo ~ideal ~ddg ~partitioner ~budget =
    let mk_rung ~respilled =
      match partitioner with
      | Some (name, _) -> Pipelined { partitioner = name; budget_ratio = budget; respilled }
      | None -> Single_bank { budget_ratio = budget; respilled }
    in
    let rung = rung_name (mk_rung ~respilled:false) in
    Obs.Trace.span obs "ladder.rung" ~attrs:[ ("rung", rung) ] @@ fun () ->
    Obs.Trace.incr obs ~label:rung Obs.Counter.Ladder_rung_entered 1;
    settle ~rung
    @@
    let* () = guard Verify.Stage_error.Partitioning in
    let* assignment0 =
      match partitioner with
      | None -> Ok (Partition.Assign.single_bank loop)
      | Some (_, p) ->
          step
            (Partition.Driver.assign ?obs p ~machine:m ~ddg
               ~ideal_kernel:ideal.Sched.Modulo.kernel loop)
    in
    let* ins = insert_copies assignment0 in
    let* () =
      match config.copy_saturation with
      | Some ratio
        when float_of_int ins.Partition.Copies.n_copies
             > ratio *. float_of_int (Ir.Loop.size loop) ->
          stage_fail ~code:"PT005" Verify.Stage_error.Copy_insertion
            (Printf.sprintf "copy-saturated partition: %d copies for %d ops"
               ins.Partition.Copies.n_copies (Ir.Loop.size loop))
      | _ -> Ok ()
    in
    let assignment = hooks.on_assignment ins.Partition.Copies.assignment in
    let rewritten = hooks.on_rewritten ins.Partition.Copies.loop in
    (* The MinII loads are the copy inserter's, counted before any hook
       tampered with the body or its assignment. *)
    let* rb =
      step
        (Partition.Driver.rebuild
           ~loads:(ins.Partition.Copies.ops_per_cluster, ins.Partition.Copies.copies_per_cluster)
           ~machine:m ~assignment rewritten)
    in
    let* () = guard Verify.Stage_error.Clustered_schedule in
    let* clustered = modulo_schedule ~budget rb in
    let kernel = hooks.on_kernel clustered.Sched.Modulo.kernel in
    (* Fail fast on a bad partition or schedule before paying for step 5. *)
    let* _ =
      check
        (Verify.Pipeline.run ~memo
           {
             (Verify.Pipeline.stages ~machine:m loop) with
             Verify.Pipeline.ideal = Some (ddg, ideal.Sched.Modulo.kernel);
             partition = Some (assignment, rewritten);
             clustered = Some (rb.ddg, kernel);
           })
    in
    let* () = guard Verify.Stage_error.Allocation in
    let* alloc = allocate_stage ~rung ~assignment rewritten in
    let respilled = alloc.Regalloc.Alloc.spill_count > 0 in
    let* rewritten, ddg_r, kernel, ii =
      if not respilled then Ok (rewritten, rb.ddg, kernel, clustered.Sched.Modulo.ii)
      else
        let* sloop, rb' = spilled alloc in
        let* clustered' = modulo_schedule ~what:" for the spill-rewritten body" ~budget rb' in
        Ok
          ( sloop,
            rb'.ddg,
            hooks.on_kernel clustered'.Sched.Modulo.kernel,
            clustered'.Sched.Modulo.ii )
    in
    finish ~rung:(mk_rung ~respilled)
      ~code:(Kernel { kernel; ii; ideal_ii = ideal.Sched.Modulo.ii })
      ~n_copies:ins.Partition.Copies.n_copies ~source_ddg:ddg ~rewritten ~ddg:ddg_r alloc
  in
  (* The last rung: flat single-bank list schedule — immune to II budgets,
     recurrence circuits and inter-bank copies. *)
  let attempt_flat ~ddg () =
    let rung = rung_name Non_pipelined in
    Obs.Trace.span obs "ladder.rung" ~attrs:[ ("rung", rung) ] @@ fun () ->
    Obs.Trace.incr obs ~label:rung Obs.Counter.Ladder_rung_entered 1;
    settle ~rung
    @@
    let* () = guard Verify.Stage_error.Copy_insertion in
    let* ins = insert_copies (Partition.Assign.single_bank loop) in
    let assignment = hooks.on_assignment ins.Partition.Copies.assignment in
    let rewritten = hooks.on_rewritten ins.Partition.Copies.loop in
    let* rb = step (Partition.Driver.rebuild ~machine:m ~assignment rewritten) in
    let* sched = list_schedule rb in
    let* () = guard Verify.Stage_error.Allocation in
    let* alloc = allocate_stage ~rung ~assignment rewritten in
    (* Spilled flat code keeps its schedule for the unspilled ops only;
       re-list-schedule the spilled body so code and schedule agree. *)
    let* rewritten, ddg_r, sched =
      if alloc.Regalloc.Alloc.spill_count = 0 then Ok (rewritten, rb.ddg, sched)
      else
        let* sloop, rb' = spilled alloc in
        let* sched' = list_schedule rb' in
        Ok (sloop, rb'.ddg, sched')
    in
    finish ~rung:Non_pipelined ~code:(Flat sched) ~n_copies:ins.Partition.Copies.n_copies
      ~source_ddg:ddg ~rewritten ~ddg:ddg_r alloc
  in
  (* --- ladder execution ------------------------------------------- *)
  let ir_diags = Verify.Pipeline.ir_check ~memo loop in
  if Verify.Diag.has_errors ir_diags then
    (* Malformed input: fail cleanly with the analyzer's own code; no rung
       can repair the source body. *)
    Error (Verify.Stage_error.of_diags ~stage:Verify.Stage_error.Ir_input ~subject ir_diags)
  else begin
    let ddg = Ddg.Graph.of_loop ~latency:m.latency loop in
    let ideal =
      let rec go = function
        | [] -> None
        | b :: rest -> (
            match Sched.Modulo.ideal ?obs ~budget_ratio:b ~machine:m ddg with
            | Some o -> Some o
            | None ->
                log ~rung:"ideal" Verify.Stage_error.Ideal_schedule
                  (Printf.sprintf "no feasible II (budget_ratio %d)" b);
                if cancel () then None else go rest)
      in
      go budgets
    in
    let modulo_rungs =
      match ideal with
      | None -> []
      | Some ideal ->
          let per_partitioner =
            List.concat_map
              (fun p -> List.map (fun b -> (Some p, b)) budgets)
              config.partitioners
          in
          (* On a monolithic machine every partitioner already lands in the
             single bank; the merge rung would be a duplicate. *)
          let single =
            if m.clusters = 1 then [] else List.map (fun b -> (None, b)) budgets
          in
          List.map
            (fun (p, b) -> fun () -> attempt_modulo ~ideal ~ddg ~partitioner:p ~budget:b)
            (per_partitioner @ single)
    in
    let rungs =
      modulo_rungs @ (if config.allow_non_pipelined then [ attempt_flat ~ddg ] else [])
    in
    let rec descend = function
      | [] when cancel () -> deadline_error ()
      | [] -> (
          match !attempts with
          | [] ->
              Error
                (Verify.Stage_error.make ~stage:Verify.Stage_error.Clustered_schedule ~subject
                   "the fallback ladder is empty (no rungs enabled)")
          | (last : Verify.Stage_error.attempt) :: _ ->
              Error
                (Verify.Stage_error.make
                   ~attempts:(List.rev !attempts)
                   ~code:last.Verify.Stage_error.at_code
                   ~stage:last.Verify.Stage_error.at_stage ~subject
                   (Printf.sprintf "every rung of the fallback ladder failed (%d attempts); last: %s"
                      (List.length !attempts) last.Verify.Stage_error.detail)))
      | rung :: rest ->
          if cancel () then deadline_error ()
          else ( match rung () with Some r -> Ok r | None -> descend rest)
    in
    if cancel () then deadline_error () else descend rungs
  end
