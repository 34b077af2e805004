type t = {
  machine : Mach.Machine.t;
  result : Partition.Driver.result;
  events : Obs.Events.t list;
}

let run ?partitioner ?scheduler ~machine loop =
  (* Fake clock: explain output is a pure function of (loop, machine),
     never of wall time, so narratives diff cleanly across runs. *)
  let obs = Obs.Trace.make ~clock:(Obs.Clock.fake ()) () in
  match Partition.Driver.pipeline ~obs ?partitioner ?scheduler ~machine loop with
  | Error e -> Error (Verify.Stage_error.to_string e)
  | Ok result -> Ok { machine; result; events = Obs.Trace.events obs }

(* The event stream is chronological: ideal scheduling, then RCG build,
   greedy placement, copy insertion, clustered scheduling. Scheduler
   events therefore belong to the ideal pipeline iff they precede the
   first RCG/greedy event. *)
let split_sections events =
  let rcg = ref [] and greedy = ref [] and copies = ref [] in
  let sched_ideal = ref [] and sched_clustered = ref [] and alloc = ref [] in
  let seen_rcg = ref false in
  List.iter
    (fun (e : Obs.Events.t) ->
      match e with
      | Obs.Events.Rcg_factor _ | Obs.Events.Rcg_edge _ ->
          seen_rcg := true;
          rcg := e :: !rcg
      | Obs.Events.Greedy_penalty _ | Obs.Events.Greedy_place _ ->
          seen_rcg := true;
          greedy := e :: !greedy
      | Obs.Events.Copy_route _ -> copies := e :: !copies
      | Obs.Events.Ii_escalate _ | Obs.Events.Sched_evict _ ->
          if !seen_rcg then sched_clustered := e :: !sched_clustered
          else sched_ideal := e :: !sched_ideal
      | Obs.Events.Spill _ | Obs.Events.Alloc_pressure _ -> alloc := e :: !alloc)
    events;
  ( List.rev !rcg, List.rev !greedy, List.rev !copies,
    List.rev !sched_ideal, List.rev !sched_clustered, List.rev !alloc )

let narrative t =
  let b = Buffer.create 2048 in
  let r = t.result in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let section title events ~empty =
    line "";
    line "-- %s --" title;
    if events = [] then line "%s" empty
    else List.iter (fun e -> line "%s" (Obs.Events.to_string e)) events
  in
  line "=== %s on %s ===" (Ir.Loop.name r.Partition.Driver.loop)
    t.machine.Mach.Machine.name;
  line "ideal II %d, clustered II %d, degradation %.0f (100 = ideal), %d copies"
    r.Partition.Driver.ideal.Sched.Modulo.ii r.Partition.Driver.clustered.Sched.Modulo.ii
    r.Partition.Driver.degradation r.Partition.Driver.n_copies;
  let rcg, greedy, copies, sched_ideal, sched_clustered, alloc = split_sections t.events in
  section "ideal modulo scheduling" sched_ideal ~empty:"scheduled at MII, first try";
  section "RCG construction" rcg ~empty:"(no contributions)";
  section "greedy placement" greedy ~empty:"(no placements)";
  section "cross-bank copies" copies ~empty:"(none needed)";
  section "clustered modulo scheduling" sched_clustered ~empty:"scheduled at MII, first try";
  if alloc <> [] then section "register allocation" alloc ~empty:"";
  (* The AN008 set, from the same analysis call whose size [rbp exact LOOP]
     prints — narrative and solver report cite one remat set, not two
     approximations. *)
  let remat =
    Analysis.Valrange.remat_candidates r.Partition.Driver.loop
      (Analysis.Valrange.of_loop r.Partition.Driver.loop)
  in
  line "";
  line "-- rematerializable values (AN008) --";
  if remat = [] then line "(none: every cross-bank value must travel by copy)"
  else begin
    line "%d op(s) could be recomputed in the consuming bank instead of copied:"
      (List.length remat);
    List.iter (fun op -> line "  %s" (Ir.Op.to_string op)) remat
  end;
  Buffer.contents b

let dot t =
  match
    Rcg.Build.of_loop_res ~machine:t.machine t.result.Partition.Driver.loop
  with
  | Error e -> invalid_arg ("Explain.dot: " ^ e)
  | Ok g ->
      Rcg.Graph.to_dot
        ~assignment:(fun r -> Partition.Assign.bank_opt t.result.Partition.Driver.assignment r)
        g

let reservation_table t =
  let kernel = t.result.Partition.Driver.clustered.Sched.Modulo.kernel in
  let ii = Sched.Kernel.ii kernel in
  let clusters = t.machine.Mach.Machine.clusters in
  let cells = Array.make_matrix ii clusters [] in
  List.iter
    (fun (p : Sched.Schedule.placement) ->
      let slot = p.Sched.Schedule.cycle mod ii in
      cells.(slot).(p.Sched.Schedule.cluster) <-
        (p.Sched.Schedule.cycle, p.Sched.Schedule.op) :: cells.(slot).(p.Sched.Schedule.cluster))
    (Sched.Kernel.placements kernel);
  let cell slot c =
    List.sort compare cells.(slot).(c)
    |> List.map (fun (_, op) ->
           Printf.sprintf "#%d:%s" (Ir.Op.id op) (Mach.Opcode.to_string (Ir.Op.opcode op)))
    |> String.concat " "
  in
  let width =
    let w = ref 9 in
    for slot = 0 to ii - 1 do
      for c = 0 to clusters - 1 do
        w := max !w (String.length (cell slot c))
      done
    done;
    !w
  in
  let b = Buffer.create 512 in
  (* right-trim each row: the padded last column would otherwise leave
     trailing blanks, which diff tools and cram tests choke on *)
  let line s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    Buffer.add_string b (String.sub s 0 !n);
    Buffer.add_char b '\n'
  in
  line (Printf.sprintf "modulo reservation table (II=%d, %d stages)" ii
          (Sched.Kernel.n_stages kernel));
  let row prefix f =
    let r = Buffer.create 80 in
    Buffer.add_string r prefix;
    for c = 0 to clusters - 1 do
      Buffer.add_string r (f c)
    done;
    line (Buffer.contents r)
  in
  row "slot" (fun c -> Printf.sprintf " | %-*s" width (Printf.sprintf "cluster %d" c));
  row "----" (fun _ -> Printf.sprintf "-+-%s" (String.make width '-'));
  for slot = 0 to ii - 1 do
    row (Printf.sprintf "%4d" slot) (fun c -> Printf.sprintf " | %-*s" width (cell slot c))
  done;
  Buffer.contents b
