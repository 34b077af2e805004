type alloc_view = {
  code : Ir.Op.t list;
  mapping : (int * int) Ir.Vreg.Map.t;
  live_out : Ir.Vreg.Set.t;
}

type stages = {
  machine : Mach.Machine.t;
  loop : Ir.Loop.t;
  ideal : (Ddg.Graph.t * Sched.Kernel.t) option;
  partition : (int Ir.Vreg.Map.t * Ir.Loop.t) option;
  clustered : (Ddg.Graph.t * Sched.Kernel.t) option;
  alloc : alloc_view option;
}

let stages ~machine loop =
  { machine; loop; ideal = None; partition = None; clustered = None; alloc = None }

(* A few entries per ladder run, so a list searched by physical
   equality. *)
type memo = (Ir.Loop.t * Ddg.Graph.t * Diag.t list) list ref

let memo () = ref []

let analysis_check ?obs ?memo ?ddg ~latency body =
  match (memo, ddg) with
  | Some memo, Some ddg -> (
      match List.find_opt (fun (b, d, _) -> b == body && d == ddg) !memo with
      | Some (_, _, diags) -> diags
      | None ->
          let diags = Analysis_check.check ?obs ~ddg ~latency body in
          memo := (body, ddg, diags) :: !memo;
          diags)
  | _ -> Analysis_check.check ?obs ?ddg ~latency body

let run ?obs ?memo ?source_ddg s =
  let ir = Ir_check.loop s.loop in
  let ideal =
    match s.ideal with
    | None -> []
    | Some (ddg, kernel) ->
        Sched_check.kernel ~machine:(Mach.Machine.monolithic_of s.machine) ~ddg kernel
  in
  let partition =
    match s.partition with
    | None -> []
    | Some (assignment, rewritten) ->
        Partition_check.check ~machine:s.machine ~assignment ~original:s.loop rewritten
  in
  let clustered =
    match s.clustered with
    | None -> []
    | Some (ddg, kernel) -> Sched_check.kernel ~machine:s.machine ~ddg kernel
  in
  let alloc =
    match s.alloc with
    | None -> []
    | Some a ->
        let assignment = Option.map fst s.partition in
        Alloc_check.check ~machine:s.machine ?assignment ~mapping:a.mapping
          ~live_out:a.live_out a.code
  in
  (* Independent dataflow analysis last: it validates the DDGs the other
     stages were driven by, so its findings read as a postscript on them.
     The source loop is always checked (against the ideal-schedule DDG
     when present, then [source_ddg], then a freshly built one); the
     copy-carrying rewritten body is checked against the clustered DDG.
     Copy insertion preserves op ids, so a finding on an untouched op (a
     dead chain, say) would repeat verbatim in the second pass — collapse
     exact duplicates, keeping first-occurrence order. *)
  let latency = s.machine.Mach.Machine.latency in
  let analysis =
    let source_ddg = match s.ideal with Some (ddg, _) -> Some ddg | None -> source_ddg in
    let both =
      analysis_check ?obs ?memo ?ddg:source_ddg ~latency s.loop
      @
      match s.partition with
      | Some (_, rewritten) ->
          analysis_check ?obs ?memo ?ddg:(Option.map fst s.clustered) ~latency rewritten
      | None -> []
    in
    let seen = Hashtbl.create 16 in
    List.filter
      (fun d ->
        if Hashtbl.mem seen d then false
        else begin
          Hashtbl.add seen d ();
          true
        end)
      both
  in
  ir @ ideal @ partition @ clustered @ alloc @ analysis

let verdict diags =
  match Diag.errors diags with
  | [] -> Ok ()
  | errs ->
      let shown = List.filteri (fun i _ -> i < 5) errs in
      let extra = List.length errs - List.length shown in
      let lines = List.map Diag.to_string shown in
      let lines =
        if extra > 0 then lines @ [ Printf.sprintf "… and %d more errors" extra ] else lines
      in
      Error (String.concat "\n" lines)
