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

(* A few entries per ladder run, so lists searched by physical
   equality of every key component. *)
type 'k entries = ('k * Diag.t list) list ref

type memo = {
  ir : Ir.Loop.t entries;
  partition : (Mach.Machine.t * int Ir.Vreg.Map.t * Ir.Loop.t * Ir.Loop.t) entries;
  kernel : (Mach.Machine.t * Ddg.Graph.t * Sched.Kernel.t) entries;
  analysis : (Ir.Loop.t * Ddg.Graph.t) entries;
}

let memo () = { ir = ref []; partition = ref []; kernel = ref []; analysis = ref [] }

(* The diagnostics stored under a key [same] matches, else [check ()]'s,
   stored under [key]. *)
let cached entries key ~same check =
  match List.find_opt (fun (k, _) -> same k key) !entries with
  | Some (_, diags) -> diags
  | None ->
      let diags = check () in
      entries := (key, diags) :: !entries;
      diags

let ir_check ?memo loop =
  match memo with
  | None -> Ir_check.loop loop
  | Some memo -> cached memo.ir loop ~same:( == ) (fun () -> Ir_check.loop loop)

let partition_check ?memo ~machine ~assignment ~original rewritten =
  let check () = Partition_check.check ~machine ~assignment ~original rewritten in
  match memo with
  | None -> check ()
  | Some memo ->
      cached memo.partition (machine, assignment, original, rewritten) check
        ~same:(fun (m, a, o, r) (m', a', o', r') -> m == m' && a == a' && o == o' && r == r')

let kernel_check ?memo ~machine ~ddg kernel =
  let check () = Sched_check.kernel ~machine ~ddg kernel in
  match memo with
  | None -> check ()
  | Some memo ->
      cached memo.kernel (machine, ddg, kernel) check
        ~same:(fun (m, d, k) (m', d', k') -> m == m' && d == d' && k == k')

let analysis_check ?obs ?memo ?ddg ~latency body =
  match (memo, ddg) with
  | Some memo, Some ddg ->
      cached memo.analysis (body, ddg)
        ~same:(fun (b, d) (b', d') -> b == b' && d == d')
        (fun () -> Analysis_check.check ?obs ~ddg ~latency body)
  | _ -> Analysis_check.check ?obs ?ddg ~latency body

let run ?obs ?memo ?source_ddg s =
  let ir = ir_check ?memo s.loop in
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
        partition_check ?memo ~machine:s.machine ~assignment ~original:s.loop rewritten
  in
  let clustered =
    match s.clustered with
    | None -> []
    | Some (ddg, kernel) -> kernel_check ?memo ~machine:s.machine ~ddg kernel
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
