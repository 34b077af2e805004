type entry = {
  loop_name : string;
  n_regs : int;
  greedy_ii : int;
  greedy_copies : int;
  solve : Solve.t;
}

type geometry = { label : string; clusters : int; entries : entry list }

type row = {
  label : string;
  loops : int;
  optimal : int;
  bound : int;
  exhausted : int;
  greedy_optimal : int;
  mean_greedy_ii : float;
  mean_exact_ii : float;
  mean_greedy_copies : float;
  mean_exact_copies : float;
}

let geometries = [ ("2x8", 2); ("4x4", 4); ("8x2", 8) ]

let slice ?seed ?n () =
  List.filter
    (fun loop -> Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop) <= Solve.slice_max_vregs)
    (Workload.Suite.loops ?seed ?n ())

let one ?budget ~cancel ~machine loop =
  let guard = Engine.Cancel.guard cancel in
  let greedy = Partition.Driver.pipeline ~cancel:guard ~machine loop in
  let greedy_ii, greedy_copies, seed_assignment =
    match greedy with
    | Ok r ->
        ( r.Partition.Driver.clustered.Sched.Modulo.ii,
          r.Partition.Driver.n_copies,
          Some r.Partition.Driver.assignment )
    | Error _ -> (0, 0, None)
  in
  let solve = Solve.solve ?budget ~cancel:guard ?seed_assignment ~machine loop in
  {
    loop_name = Ir.Loop.name loop;
    n_regs = solve.Solve.n_regs;
    greedy_ii;
    greedy_copies;
    solve;
  }

let run ?budget ?(cancel = Engine.Cancel.never) ?(jobs = 1) ?seed ?n
    ?(copy_model = Mach.Machine.Embedded) () =
  let loops = Array.of_list (slice ?seed ?n ()) in
  let tasks =
    Array.concat
      (List.map
         (fun (_, clusters) ->
           let machine = Mach.Machine.paper_clustered ~clusters ~copy_model in
           Array.map (fun loop () -> one ?budget ~cancel ~machine loop) loops)
         geometries)
  in
  let results = Engine.Pool.run ~jobs tasks in
  let entry i = match results.(i) with Ok e -> e | Error exn -> raise exn in
  let per = Array.length loops in
  List.mapi
    (fun gi (label, clusters) ->
      {
        label =
          (match copy_model with
          | Mach.Machine.Embedded -> label
          | Mach.Machine.Copy_unit -> label ^ " copy-unit");
        clusters;
        entries = List.init per (fun li -> entry ((gi * per) + li));
      })
    geometries

let greedy_is_optimal e =
  match e.solve.Solve.status with
  | Solve.Optimal w ->
      e.greedy_ii = w.Witness.ii && e.greedy_copies = w.Witness.copies
  | Solve.Bound _ | Solve.Budget_exhausted _ -> false

let row_of g =
  let count p = List.length (List.filter p g.entries) in
  let optimal =
    count (fun e -> match e.solve.Solve.status with Solve.Optimal _ -> true | _ -> false)
  in
  let bound =
    count (fun e -> match e.solve.Solve.status with Solve.Bound _ -> true | _ -> false)
  in
  let exhausted =
    count (fun e ->
        match e.solve.Solve.status with Solve.Budget_exhausted _ -> true | _ -> false)
  in
  (* Means compare greedy and exact over the same loops: those solved to
     proven optimality (and where greedy itself compiled). *)
  let opt_entries =
    List.filter_map
      (fun e ->
        match e.solve.Solve.status with
        | Solve.Optimal w when e.greedy_ii > 0 -> Some (e, w)
        | _ -> None)
      g.entries
  in
  let k = List.length opt_entries in
  let mean f =
    if k = 0 then 0.0
    else float_of_int (List.fold_left (fun acc ew -> acc + f ew) 0 opt_entries) /. float_of_int k
  in
  {
    label = g.label;
    loops = List.length g.entries;
    optimal;
    bound;
    exhausted;
    greedy_optimal = count greedy_is_optimal;
    mean_greedy_ii = mean (fun (e, _) -> e.greedy_ii);
    mean_exact_ii = mean (fun (_, w) -> w.Witness.ii);
    mean_greedy_copies = mean (fun (e, _) -> e.greedy_copies);
    mean_exact_copies = mean (fun (_, w) -> w.Witness.copies);
  }
