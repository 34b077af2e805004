type partitioner =
  | Greedy of Rcg.Weights.t
  | Bug
  | Uas
  | Custom of (Mach.Machine.t -> Ddg.Graph.t -> Rcg.Graph.t option -> Assign.t)

type result = {
  loop : Ir.Loop.t;
  machine : Mach.Machine.t;
  ideal : Sched.Modulo.outcome;
  clustered : Sched.Modulo.outcome;
  assignment : Assign.t;
  rewritten : Ir.Loop.t;
  n_copies : int;
  degradation : float;
  ipc_ideal : float;
  ipc_clustered : float;
}

let cluster_map assignment loop =
  (* Every lookup the schedulers will ever make is materialized here, so a
     malformed assignment (a register of the body with no bank) surfaces as
     an [Error] before any scheduling starts instead of a mid-schedule
     exception. [Assign.cluster_of_op] raises on unassigned registers. *)
  let tbl = Hashtbl.create 64 in
  match
    List.iter
      (fun op -> Hashtbl.replace tbl (Ir.Op.id op) (Assign.cluster_of_op assignment op))
      (Ir.Loop.ops loop)
  with
  | () ->
      Ok
        (fun id ->
          match Hashtbl.find_opt tbl id with
          | Some c -> c
          | None ->
              (* True internal invariant: the schedulers only query ids of
                 the DDG built from this same body, all of which are in the
                 table. An unknown id is a caller bug, not bad input. *)
              invalid_arg (Printf.sprintf "Driver.cluster_map: unknown op id %d" id))
  | exception Invalid_argument msg -> Error msg

let partitioner_name = function
  | Greedy _ -> "greedy"
  | Bug -> "bug"
  | Uas -> "uas"
  | Custom _ -> "custom"

let deadline_code = "PIPE008"

let clustered_ipc ~machine kernel =
  (* Table 1: copies occupy an FU slot under the embedded model only. *)
  let count (op : Ir.Op.t) =
    match machine.Mach.Machine.copy_model with
    | Mach.Machine.Embedded -> true
    | Mach.Machine.Copy_unit -> not (Ir.Op.is_copy op)
  in
  Sched.Kernel.ipc ~count kernel

let partition ?obs partitioner ~machine ~ddg ~ideal_kernel ~depth =
  match partitioner with
  | Bug -> Bug.partition ~machine ddg
  | Uas -> Uas.partition ~machine ddg
  | Greedy weights ->
      let rcg =
        Obs.Trace.span obs "rcg.build" (fun () ->
            let src = Rcg.Build.source_of_kernel ~ddg ~depth ideal_kernel in
            Rcg.Build.build ?obs ~weights src)
      in
      Greedy.partition ?obs ~weights ~banks:machine.Mach.Machine.clusters rcg
  | Custom f ->
      let src = Rcg.Build.source_of_kernel ~ddg ~depth ideal_kernel in
      let rcg = Rcg.Build.build src in
      f machine ddg (Some rcg)

let assign ?obs partitioner ~machine ~ddg ~ideal_kernel loop =
  let fail ?code msg =
    Error
      (Verify.Stage_error.make ?code ~stage:Verify.Stage_error.Partitioning
         ~subject:(Ir.Loop.name loop) msg)
  in
  match partition ?obs partitioner ~machine ~ddg ~ideal_kernel ~depth:(Ir.Loop.depth loop) with
  | exception Invalid_argument msg ->
      (* A partitioner rejecting its input (bad pins, banks < 1, a custom
         function raising) is data-dependent, not a bug here. *)
      fail msg
  | assignment ->
      (* Registers the RCG may have missed (none in practice) park in 0. *)
      let assignment = Assign.park loop assignment in
      if Assign.all_in_range ~banks:machine.Mach.Machine.clusters assignment then Ok assignment
      else
        (* Caught here so neither copy insertion nor the resource tables
           ever see an out-of-range bank (they treat that as an internal
           invariant and raise). *)
        fail ~code:"PT002" "assignment names a bank the machine lacks"

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

type rebuilt = { ddg : Ddg.Graph.t; cluster_of : int -> int; mii : int }

let rebuild ?(timer = { time = (fun _ f -> f ()) }) ?loads ~machine ~assignment body =
  let m : Mach.Machine.t = machine in
  let ddg = timer.time "ddg.rebuild" (fun () -> Ddg.Graph.of_loop ~latency:m.latency body) in
  timer.time "sched.minii" @@ fun () ->
  match cluster_map assignment body with
  | Error msg ->
      Error
        (Verify.Stage_error.make ~code:"PT001" ~stage:Verify.Stage_error.Partitioning
           ~subject:(Ir.Loop.name body) msg)
  | Ok cluster_of ->
      let ops_per_cluster, copies_per_cluster =
        match loads with
        | Some loads -> loads
        | None ->
            let opsc = Array.make m.clusters 0 and cpc = Array.make m.clusters 0 in
            List.iter
              (fun op ->
                let c = cluster_of (Ir.Op.id op) in
                if Ir.Op.is_copy op then cpc.(c) <- cpc.(c) + 1 else opsc.(c) <- opsc.(c) + 1)
              (Ir.Loop.ops body);
            (opsc, cpc)
      in
      Ok
        {
          ddg;
          cluster_of;
          mii = Sched.Modulo.clustered_mii ~machine:m ~ops_per_cluster ~copies_per_cluster ddg;
        }

(* Feed [copies.inserted{SRC->DST}] from the copy ops of a rewritten
   body: a copy's source bank is its (sole) use's, its destination bank
   its def's. Skipped entirely without a context. *)
let count_copy_pairs obs ~assignment ops =
  match obs with
  | None -> ()
  | Some _ ->
      List.iter
        (fun op ->
          if Ir.Op.is_copy op then
            match (Ir.Op.uses op, Ir.Op.defs op) with
            | src :: _, dst :: _ -> (
                match (Assign.bank_opt assignment src, Assign.bank_opt assignment dst) with
                | Some b1, Some b2 ->
                    Obs.Trace.incr obs ~label:(Printf.sprintf "%d->%d" b1 b2)
                      Obs.Counter.Copies_inserted 1
                | _ -> ())
            | _ -> ())
        ops

type scheduler = Rau | Swing

let pipeline ?obs ?(cancel = fun () -> false) ?(partitioner = Greedy Rcg.Weights.default)
    ?(scheduler = Rau) ?budget_ratio ?(verify = false) ~machine loop =
  let m : Mach.Machine.t = machine in
  let subject = Ir.Loop.name loop in
  Obs.Trace.span obs "pipeline"
    ~attrs:
      [ ("loop", subject); ("machine", m.Mach.Machine.name);
        ("partitioner", partitioner_name partitioner) ]
  @@ fun () ->
  let fail ?code stage message = Error (Verify.Stage_error.make ?code ~stage ~subject message) in
  let ( let* ) = Stdlib.Result.bind in
  (* Cooperative deadline, polled at stage boundaries exactly as the
     resilient ladder does: a fired token turns into an ordinary stage
     failure carrying PIPE008, never an exception. *)
  let deadline stage k =
    if cancel () then fail ~code:deadline_code stage "deadline exceeded" else k ()
  in
  deadline Verify.Stage_error.Ideal_schedule @@ fun () ->
  let schedule_ideal ddg =
    Obs.Trace.span obs "schedule.ideal" @@ fun () ->
    match scheduler with
    | Rau -> Sched.Modulo.ideal ?obs ?budget_ratio ~machine:m ddg
    | Swing -> Sched.Swing.ideal ?obs ~machine:m ddg
  in
  let schedule_clustered ~cluster_of ~mii ddg =
    Obs.Trace.span obs "schedule.clustered" @@ fun () ->
    match scheduler with
    | Rau -> Sched.Modulo.schedule ?obs ?budget_ratio ~cluster_of ~machine:m ~mii ddg
    | Swing -> Sched.Swing.schedule ?obs ~cluster_of ~machine:m ~mii ddg
  in
  let ddg =
    Obs.Trace.span obs "ddg.build" (fun () -> Ddg.Graph.of_loop ~latency:m.latency loop)
  in
  match schedule_ideal ddg with
  | None ->
      fail Verify.Stage_error.Ideal_schedule
        "no feasible II found for the ideal (monolithic) pipeline"
  | Some ideal ->
      let n_ops = Ir.Loop.size loop in
      let ipc_ideal = float_of_int n_ops /. float_of_int ideal.Sched.Modulo.ii in
      (* Optional self-check: independent re-verification of every stage
         artifact; an error-severity diagnostic fails the pipeline. *)
      let verified stages k =
        if not verify then k ()
        else
          let diags = Obs.Trace.span obs "verify" (fun () -> Verify.Pipeline.run ?obs stages) in
          if Verify.Diag.has_errors diags then
            Error (Verify.Stage_error.of_diags ~subject diags)
          else k ()
      in
      if Mach.Machine.is_monolithic m then
        let stages =
          { (Verify.Pipeline.stages ~machine:m loop) with
            Verify.Pipeline.ideal = Some (ddg, ideal.Sched.Modulo.kernel) }
        in
        verified stages @@ fun () ->
        Ok
          {
            loop; machine = m; ideal; clustered = ideal; assignment = Assign.single_bank loop;
            rewritten = loop; n_copies = 0; degradation = 100.0; ipc_ideal;
            ipc_clustered = ipc_ideal;
          }
      else begin
        deadline Verify.Stage_error.Partitioning @@ fun () ->
        let* assignment =
          Obs.Trace.span obs "partition" (fun () ->
              assign ?obs partitioner ~machine:m ~ddg ~ideal_kernel:ideal.Sched.Modulo.kernel
                loop)
        in
        deadline Verify.Stage_error.Copy_insertion @@ fun () ->
        match
          Obs.Trace.span obs "copies.insert" (fun () ->
              Copies.insert_loop ?obs ~machine:m ~assignment loop)
        with
        | exception Invalid_argument msg -> fail Verify.Stage_error.Copy_insertion msg
        | ins -> (
        count_copy_pairs obs ~assignment:ins.Copies.assignment
          (Ir.Loop.ops ins.Copies.loop);
        let* rb =
          rebuild
            ~timer:{ time = (fun name f -> Obs.Trace.span obs name f) }
            ~loads:(ins.Copies.ops_per_cluster, ins.Copies.copies_per_cluster)
            ~machine:m ~assignment:ins.Copies.assignment ins.Copies.loop
        in
        deadline Verify.Stage_error.Clustered_schedule @@ fun () ->
        Obs.Trace.set_gauge obs Obs.Counter.Clustered_mii rb.mii;
        match schedule_clustered ~cluster_of:rb.cluster_of ~mii:rb.mii rb.ddg with
        | None ->
            fail Verify.Stage_error.Clustered_schedule
              (Printf.sprintf "no feasible II found for the clustered pipeline (MII %d)" rb.mii)
        | Some clustered ->
            let stages =
              {
                (Verify.Pipeline.stages ~machine:m loop) with
                Verify.Pipeline.ideal = Some (ddg, ideal.Sched.Modulo.kernel);
                partition = Some (ins.Copies.assignment, ins.Copies.loop);
                clustered = Some (rb.ddg, clustered.Sched.Modulo.kernel);
              }
            in
            verified stages @@ fun () ->
            Ok
              {
                loop; machine = m; ideal; clustered;
                assignment = ins.Copies.assignment; rewritten = ins.Copies.loop;
                n_copies = ins.Copies.n_copies;
                degradation =
                  100.0 *. float_of_int clustered.Sched.Modulo.ii
                  /. float_of_int ideal.Sched.Modulo.ii;
                ipc_ideal;
                ipc_clustered = clustered_ipc ~machine:m clustered.Sched.Modulo.kernel;
              })
      end
