type outcome = (Metrics.loop_metrics, Verify.Stage_error.t) Stdlib.result

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

let fingerprint_loop loop =
  let b = Buffer.create 256 in
  Buffer.add_string b (Ir.Loop.name loop);
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (Ir.Loop.depth loop));
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int (Ir.Loop.trip_count loop));
  Buffer.add_char b '\n';
  Ir.Vreg.Set.iter
    (fun r ->
      Buffer.add_string b (Ir.Vreg.to_string r);
      Buffer.add_char b ',')
    (Ir.Loop.live_out loop);
  Buffer.add_char b '\n';
  List.iter
    (fun op ->
      Buffer.add_string b (string_of_int (Ir.Op.id op));
      Buffer.add_char b '#';
      Buffer.add_string b (Ir.Op.to_string op);
      Buffer.add_char b '\n')
    (Ir.Loop.ops loop);
  Buffer.contents b

let fingerprint_machine (m : Mach.Machine.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s|%d|%d|%s|%d|%d|%d\n" m.Mach.Machine.name m.Mach.Machine.clusters
       m.Mach.Machine.fus_per_cluster
       (Mach.Machine.copy_model_name m.Mach.Machine.copy_model)
       m.Mach.Machine.copy_ports m.Mach.Machine.busses m.Mach.Machine.regs_per_bank);
  List.iter
    (fun (cls, count) ->
      Buffer.add_string b (Mach.Machine.fu_class_name cls);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int count);
      Buffer.add_char b ',')
    m.Mach.Machine.fu_mix;
  Buffer.add_char b '\n';
  (* The latency table is a function; tabulate it over the whole opcode
     and class space so any override lands in the key. *)
  List.iter
    (fun op ->
      List.iter
        (fun cls ->
          Buffer.add_string b (string_of_int (m.Mach.Machine.latency op cls));
          Buffer.add_char b ',')
        Mach.Rclass.all)
    Mach.Opcode.all;
  Buffer.contents b

let fingerprint_options ?partitioner ?scheduler () =
  let scheduler_name =
    match scheduler with
    | None | Some Partition.Driver.Rau -> "rau"
    | Some Partition.Driver.Swing -> "swing"
  in
  match partitioner with
  | Some (Partition.Driver.Custom _) -> None
  | part ->
      let part_name =
        match part with
        | None -> Printf.sprintf "greedy-default"
        | Some (Partition.Driver.Greedy w) ->
            (* %h prints the exact bits, so two weight sets collide only
               when every float is identical. *)
            Printf.sprintf "greedy(%h,%h,%h,%h,%h)" w.Rcg.Weights.depth_base
              w.Rcg.Weights.critical_boost w.Rcg.Weights.attract_scale
              w.Rcg.Weights.repel_scale w.Rcg.Weights.balance
        | Some Partition.Driver.Bug -> "bug"
        | Some Partition.Driver.Uas -> "uas"
        | Some (Partition.Driver.Custom _) -> assert false
      in
      Some (part_name ^ ";" ^ scheduler_name)

let job_key ?partitioner ?scheduler ~machine loop =
  Option.map
    (fun options ->
      Engine.Key.make
        [
          ("loop", fingerprint_loop loop);
          ("machine", fingerprint_machine machine);
          ("options", options);
        ])
    (fingerprint_options ?partitioner ?scheduler ())

(* ------------------------------------------------------------------ *)
(* Outcome codec                                                       *)

let num x = Obs.Json.Num x
let int_num x = Obs.Json.Num (float_of_int x)

let all_stages =
  Verify.Stage_error.
    [
      Ir_input; Ideal_schedule; Partitioning; Copy_insertion; Clustered_schedule;
      Allocation; Verification;
    ]

let stage_of_name name =
  List.find_opt (fun s -> String.equal (Verify.Stage_error.stage_name s) name) all_stages

let encode_metrics (m : Metrics.loop_metrics) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.Str m.Metrics.name);
      ("ideal_ii", int_num m.Metrics.ideal_ii);
      ("clustered_ii", int_num m.Metrics.clustered_ii);
      ("degradation", num m.Metrics.degradation);
      ("ipc_ideal", num m.Metrics.ipc_ideal);
      ("ipc_clustered", num m.Metrics.ipc_clustered);
      ("n_copies", int_num m.Metrics.n_copies);
      ("n_ops", int_num m.Metrics.n_ops);
    ]

let encode_error (e : Verify.Stage_error.t) =
  let attempt (a : Verify.Stage_error.attempt) =
    Obs.Json.Obj
      [
        ("stage", Obs.Json.Str (Verify.Stage_error.stage_name a.Verify.Stage_error.at_stage));
        ("rung", Obs.Json.Str a.Verify.Stage_error.rung);
        ("code", Obs.Json.Str a.Verify.Stage_error.at_code);
        ("detail", Obs.Json.Str a.Verify.Stage_error.detail);
      ]
  in
  Obs.Json.Obj
    [
      ("stage", Obs.Json.Str (Verify.Stage_error.stage_name e.Verify.Stage_error.stage));
      ("code", Obs.Json.Str e.Verify.Stage_error.code);
      ("message", Obs.Json.Str e.Verify.Stage_error.message);
      ("subject", Obs.Json.Str e.Verify.Stage_error.subject);
      ("attempts", Obs.Json.List (List.map attempt e.Verify.Stage_error.attempts));
    ]

let encode : outcome -> Obs.Json.t = function
  | Ok m -> Obs.Json.Obj [ ("ok", encode_metrics m) ]
  | Error e -> Obs.Json.Obj [ ("err", encode_error e) ]

let ( let* ) = Option.bind

let field name conv j = Option.bind (Obs.Json.member name j) conv

let decode_metrics j : Metrics.loop_metrics option =
  let* name = field "name" Obs.Json.to_str j in
  let* ideal_ii = field "ideal_ii" Obs.Json.to_int j in
  let* clustered_ii = field "clustered_ii" Obs.Json.to_int j in
  let* degradation = field "degradation" Obs.Json.to_num j in
  let* ipc_ideal = field "ipc_ideal" Obs.Json.to_num j in
  let* ipc_clustered = field "ipc_clustered" Obs.Json.to_num j in
  let* n_copies = field "n_copies" Obs.Json.to_int j in
  let* n_ops = field "n_ops" Obs.Json.to_int j in
  Some
    {
      Metrics.name; ideal_ii; clustered_ii; degradation; ipc_ideal; ipc_clustered;
      n_copies; n_ops;
    }

let decode_attempt j =
  let* stage = Option.bind (field "stage" Obs.Json.to_str j) stage_of_name in
  let* rung = field "rung" Obs.Json.to_str j in
  let* code = field "code" Obs.Json.to_str j in
  let* detail = field "detail" Obs.Json.to_str j in
  Some (Verify.Stage_error.attempt ~rung ~code stage detail)

let decode_error j =
  let* stage = Option.bind (field "stage" Obs.Json.to_str j) stage_of_name in
  let* code = field "code" Obs.Json.to_str j in
  let* message = field "message" Obs.Json.to_str j in
  let* subject = field "subject" Obs.Json.to_str j in
  let* attempts = field "attempts" Obs.Json.to_list j in
  let attempts = List.map decode_attempt attempts in
  if List.exists Option.is_none attempts then None
  else
    Some
      (Verify.Stage_error.make
         ~attempts:(List.filter_map Fun.id attempts)
         ~code ~stage ~subject message)

let decode j : outcome option =
  match (Obs.Json.member "ok" j, Obs.Json.member "err" j) with
  | Some m, None -> Option.map (fun m -> Ok m) (decode_metrics m)
  | None, Some e -> Option.map (fun e -> Error e) (decode_error e)
  | _ -> None

let codec = { Engine.Run.encode; decode }

(* ------------------------------------------------------------------ *)
(* Batch runner                                                        *)

type result = {
  outcomes : (string * outcome) array;
  hits : int;
  executed : int;
}

let run ?(jobs = 1) ?cache ?partitioner ?scheduler ~machine loops =
  let loops = Array.of_list loops in
  let js =
    Array.map
      (fun loop ->
        {
          Engine.Run.key = job_key ?partitioner ?scheduler ~machine loop;
          work =
            (fun _ ->
              match Partition.Driver.pipeline ?partitioner ?scheduler ~machine loop with
              | Ok r -> Ok (Metrics.of_result r)
              | Error e -> Error e);
        })
      loops
  in
  let outs, stats = Engine.Run.map ?cache ~codec ~jobs js in
  let outcomes =
    Array.mapi
      (fun i out ->
        let name = Ir.Loop.name loops.(i) in
        let outcome =
          match out with
          | Ok o -> o
          | Error exn ->
              (* Fault isolation: a raising job damns only itself, as a
                 structured error on the existing contract. *)
              Error
                (Verify.Stage_error.make ~code:"PIPE001"
                   ~stage:Verify.Stage_error.Verification ~subject:name
                   ("uncaught exception: " ^ Printexc.to_string exn))
        in
        (name, outcome))
      outs
  in
  { outcomes; hits = stats.Engine.Run.hits; executed = stats.Engine.Run.executed }
