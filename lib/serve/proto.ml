let protocol = "rbp-serve/1"

let code_bad_frame = "SRV001"
let code_bad_machine = "SRV002"
let code_quarantined = "SRV003"
let code_shutting_down = "SRV004"

type compile = {
  id : string;
  ir : string;
  clusters : int;
  model : Mach.Machine.copy_model;
  deadline_ms : float option;
  no_cache : bool;
  fault : string option;
  trace_id : string option;
  trace : bool;
}

type request =
  | Compile of compile
  | Ping
  | Stats
  | Metrics
  | Flight of { id : string option; anomalies : bool }
  | Shutdown

type cache_status = Hit | Miss | Bypass

let cache_status_name = function Hit -> "hit" | Miss -> "miss" | Bypass -> "bypass"

let cache_status_of_name = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "bypass" -> Some Bypass
  | _ -> None

type timing = { queue_ms : float; compile_ms : float; total_ms : float }

let zero_timing = { queue_ms = 0.0; compile_ms = 0.0; total_ms = 0.0 }

type result_reply = {
  id : string;
  trace_id : string option;
  outcome : Core.Batch.outcome;
  rung : string option;
  pipelined : bool;
  flat_cycles : int option;
  cache : cache_status;
  spills : int;
  attempts : string list;
  timing : timing;
  trace : Obs.Json.t option;
}

type reply =
  | Result of result_reply
  | Overload of { id : string; depth : int; retry_after_ms : float }
  | Bad_frame of { detail : string }
  | Pong
  | Stats_reply of (string * int) list
  | Metrics_reply of Obs.Json.t
  | Flight_reply of Obs.Json.t
  | Bye

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)

let str s = Obs.Json.Str s
let num x = Obs.Json.Num x
let int_num n = Obs.Json.Num (float_of_int n)
let field name conv j = Option.bind (Obs.Json.member name j) conv
let ( let* ) = Option.bind

let model_name = function
  | Mach.Machine.Embedded -> "embedded"
  | Mach.Machine.Copy_unit -> "copy-unit"

let model_of_name = function
  | "embedded" -> Some Mach.Machine.Embedded
  | "copy-unit" -> Some Mach.Machine.Copy_unit
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_to_json = function
  | Ping -> Obs.Json.Obj [ ("op", str "ping") ]
  | Stats -> Obs.Json.Obj [ ("op", str "stats") ]
  | Metrics -> Obs.Json.Obj [ ("op", str "metrics") ]
  | Flight { id; anomalies } ->
      Obs.Json.Obj
        (List.concat
           [
             [ ("op", str "flight") ];
             (match id with None -> [] | Some id -> [ ("id", str id) ]);
             (if anomalies then [ ("anomalies", Obs.Json.Bool true) ] else []);
           ])
  | Shutdown -> Obs.Json.Obj [ ("op", str "shutdown") ]
  | Compile c ->
      Obs.Json.Obj
        (List.concat
           [
             [ ("op", str "compile"); ("id", str c.id); ("ir", str c.ir) ];
             [ ("clusters", int_num c.clusters); ("model", str (model_name c.model)) ];
             (match c.deadline_ms with
             | None -> []
             | Some ms -> [ ("deadline_ms", num ms) ]);
             (if c.no_cache then [ ("no_cache", Obs.Json.Bool true) ] else []);
             (match c.fault with None -> [] | Some f -> [ ("fault", str f) ]);
             (match c.trace_id with None -> [] | Some t -> [ ("trace_id", str t) ]);
             (if c.trace then [ ("trace", Obs.Json.Bool true) ] else []);
           ])

let request_of_json j =
  match field "op" Obs.Json.to_str j with
  | None -> Error "missing \"op\" field"
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "flight" ->
      let id = field "id" Obs.Json.to_str j in
      let anomalies =
        match Obs.Json.member "anomalies" j with
        | Some (Obs.Json.Bool b) -> b
        | _ -> false
      in
      Ok (Flight { id; anomalies })
  | Some "shutdown" -> Ok Shutdown
  | Some "compile" -> (
      match field "ir" Obs.Json.to_str j with
      | None -> Error "compile request lacks an \"ir\" field"
      | Some ir -> (
          let id = Option.value ~default:"" (field "id" Obs.Json.to_str j) in
          let clusters = Option.value ~default:4 (field "clusters" Obs.Json.to_int j) in
          let deadline_ms = field "deadline_ms" Obs.Json.to_num j in
          let no_cache =
            match Obs.Json.member "no_cache" j with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false
          in
          let fault = field "fault" Obs.Json.to_str j in
          let trace_id = field "trace_id" Obs.Json.to_str j in
          let trace =
            match Obs.Json.member "trace" j with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false
          in
          match Option.value ~default:"embedded" (field "model" Obs.Json.to_str j) with
          | m when model_of_name m <> None ->
              let model = Option.get (model_of_name m) in
              Ok
                (Compile
                   { id; ir; clusters; model; deadline_ms; no_cache; fault; trace_id; trace })
          | m -> Error (Printf.sprintf "unknown copy model %S" m)))
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_string line =
  match Obs.Json.of_string line with
  | Error e -> Error ("frame is not JSON: " ^ e)
  | Ok j -> request_of_json j

let request_to_string r = Obs.Json.to_string (request_to_json r)

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

let status_of_result (r : result_reply) =
  match r.outcome with
  | Ok _ -> "ok"
  | Error e when e.Verify.Stage_error.code = Partition.Driver.deadline_code -> "timeout"
  | Error _ -> "error"

let status_of_reply = function
  | Result r -> status_of_result r
  | Overload _ -> "overload"
  | Bad_frame _ -> "bad_frame"
  | Pong -> "pong"
  | Stats_reply _ -> "stats"
  | Metrics_reply _ -> "metrics"
  | Flight_reply _ -> "flight"
  | Bye -> "bye"

let reply_to_json reply =
  match reply with
  | Pong -> Obs.Json.Obj [ ("status", str "pong"); ("protocol", str protocol) ]
  | Bye -> Obs.Json.Obj [ ("status", str "bye") ]
  | Bad_frame { detail } ->
      Obs.Json.Obj
        [ ("status", str "bad_frame"); ("code", str code_bad_frame); ("detail", str detail) ]
  | Stats_reply cells ->
      Obs.Json.Obj
        [
          ("status", str "stats");
          ("counters", Obs.Json.Obj (List.map (fun (n, v) -> (n, int_num v)) cells));
        ]
  | Metrics_reply m -> Obs.Json.Obj [ ("status", str "metrics"); ("metrics", m) ]
  | Flight_reply f -> Obs.Json.Obj [ ("status", str "flight"); ("flight", f) ]
  | Overload { id; depth; retry_after_ms } ->
      Obs.Json.Obj
        [
          ("status", str "overload");
          ("id", str id);
          ("depth", int_num depth);
          ("retry_after_ms", num retry_after_ms);
        ]
  | Result r ->
      Obs.Json.Obj
        (List.concat
           [
             [ ("status", str (status_of_result r)); ("id", str r.id) ];
             (match r.trace_id with None -> [] | Some t -> [ ("trace_id", str t) ]);
             [
               ("result", Core.Batch.codec.Engine.Run.encode r.outcome);
               ("cache", str (cache_status_name r.cache));
             ];
             (match r.rung with None -> [] | Some rung -> [ ("rung", str rung) ]);
             [ ("pipelined", Obs.Json.Bool r.pipelined) ];
             (match r.flat_cycles with
             | None -> []
             | Some n -> [ ("flat_cycles", int_num n) ]);
             [
               ("spills", int_num r.spills);
               ("attempts", Obs.Json.List (List.map str r.attempts));
               ("queue_ms", num r.timing.queue_ms);
               ("compile_ms", num r.timing.compile_ms);
               ("total_ms", num r.timing.total_ms);
             ];
             (match r.trace with None -> [] | Some t -> [ ("trace", t) ]);
           ])

let reply_of_json j =
  match field "status" Obs.Json.to_str j with
  | None -> Error "reply lacks a \"status\" field"
  | Some "pong" -> Ok Pong
  | Some "bye" -> Ok Bye
  | Some "bad_frame" ->
      Ok
        (Bad_frame
           { detail = Option.value ~default:"" (field "detail" Obs.Json.to_str j) })
  | Some "stats" -> (
      match Obs.Json.member "counters" j with
      | Some (Obs.Json.Obj cells) ->
          let cells =
            List.filter_map
              (fun (n, v) -> Option.map (fun v -> (n, v)) (Obs.Json.to_int v))
              cells
          in
          Ok (Stats_reply cells)
      | _ -> Error "stats reply lacks a \"counters\" object")
  | Some "metrics" -> (
      match Obs.Json.member "metrics" j with
      | Some m -> Ok (Metrics_reply m)
      | None -> Error "metrics reply lacks a \"metrics\" object")
  | Some "flight" -> (
      match Obs.Json.member "flight" j with
      | Some f -> Ok (Flight_reply f)
      | None -> Error "flight reply lacks a \"flight\" object")
  | Some "overload" -> (
      match
        ( field "id" Obs.Json.to_str j,
          field "depth" Obs.Json.to_int j,
          field "retry_after_ms" Obs.Json.to_num j )
      with
      | Some id, Some depth, Some retry_after_ms ->
          Ok (Overload { id; depth; retry_after_ms })
      | _ -> Error "malformed overload reply")
  | Some ("ok" | "error" | "timeout") -> (
      let decoded =
        let* id = field "id" Obs.Json.to_str j in
        let trace_id = field "trace_id" Obs.Json.to_str j in
        let* result = Obs.Json.member "result" j in
        let* outcome = Core.Batch.codec.Engine.Run.decode result in
        let* cache =
          Option.bind (field "cache" Obs.Json.to_str j) cache_status_of_name
        in
        let rung = field "rung" Obs.Json.to_str j in
        let pipelined =
          match Obs.Json.member "pipelined" j with
          | Some (Obs.Json.Bool b) -> b
          | _ -> false
        in
        let flat_cycles = field "flat_cycles" Obs.Json.to_int j in
        let spills = Option.value ~default:0 (field "spills" Obs.Json.to_int j) in
        let attempts =
          match field "attempts" Obs.Json.to_list j with
          | Some l -> List.filter_map Obs.Json.to_str l
          | None -> []
        in
        let timing =
          {
            queue_ms = Option.value ~default:0.0 (field "queue_ms" Obs.Json.to_num j);
            compile_ms = Option.value ~default:0.0 (field "compile_ms" Obs.Json.to_num j);
            total_ms = Option.value ~default:0.0 (field "total_ms" Obs.Json.to_num j);
          }
        in
        let trace = Obs.Json.member "trace" j in
        Some
          (Result
             {
               id; trace_id; outcome; rung; pipelined; flat_cycles; cache; spills;
               attempts; timing; trace;
             })
      in
      match decoded with
      | Some r -> Ok r
      | None -> Error "malformed result reply")
  | Some s -> Error (Printf.sprintf "unknown reply status %S" s)

let reply_of_string line =
  match Obs.Json.of_string line with
  | Error e -> Error ("reply is not JSON: " ^ e)
  | Ok j -> reply_of_json j

let reply_to_string r = Obs.Json.to_string (reply_to_json r)

(* ------------------------------------------------------------------ *)
(* Structured-failure constructors the daemon shares                   *)

let failure ?attempts ~code ~stage ~id detail =
  Verify.Stage_error.make ?attempts ~code ~stage ~subject:id detail

let queue_timeout_error ~id =
  failure ~code:Partition.Driver.deadline_code ~stage:Verify.Stage_error.Ideal_schedule ~id
    "deadline exceeded while queued; compilation never started"

let quarantine_error ~id ~crashes =
  failure ~code:code_quarantined ~stage:Verify.Stage_error.Verification ~id
    (Printf.sprintf "request quarantined after crashing its worker %d time(s)" crashes)

let shutdown_error ~id =
  failure ~code:code_shutting_down ~stage:Verify.Stage_error.Ir_input ~id
    "service is shutting down"

let error_reply ?(cache = Bypass) ?(timing = zero_timing) ?trace_id ~id err =
  Result
    {
      id;
      trace_id;
      outcome = Error err;
      rung = None;
      pipelined = false;
      flat_cycles = None;
      cache;
      spills = 0;
      attempts = List.map Verify.Stage_error.attempt_to_string err.Verify.Stage_error.attempts;
      timing;
      trace = None;
    }
