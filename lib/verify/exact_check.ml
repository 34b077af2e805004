type claim = {
  original : Ir.Loop.t;
  rewritten : Ir.Loop.t;
  assignment : int Ir.Vreg.Map.t;
  kernel : Sched.Kernel.t;
  ddg : Ddg.Graph.t;
  claimed_ii : int;
  claimed_copies : int;
  lower : int;
  optimal : bool;
}

let err = Diag.error Diag.Exact

let check ~machine c =
  let out = ref [] in
  let add d = out := d :: !out in
  (* EX001: the kernel is the witness; the claimed II must be its II. *)
  let kii = Sched.Kernel.ii c.kernel in
  if kii <> c.claimed_ii then
    add
      (err ~code:"EX001"
         (Printf.sprintf "claimed II %d but the witness kernel has II %d" c.claimed_ii kii));
  (* EX002: the witness artifacts must satisfy the independent analyzers. *)
  let sub =
    Diag.errors
      (Sched_check.kernel ~machine ~ddg:c.ddg c.kernel
      @ Partition_check.check ~machine ~assignment:c.assignment ~original:c.original
          c.rewritten)
  in
  if sub <> [] then
    add
      (err ~code:"EX002"
         (Printf.sprintf "witness artifacts fail independent verification (%s)"
            (Diag.summary sub)));
  List.iter add sub;
  (* EX003: stripping the copies must give back the original body. *)
  let stripped = List.filter (fun op -> not (Ir.Op.is_copy op)) (Ir.Loop.ops c.rewritten) in
  let orig = Ir.Loop.ops c.original in
  let same =
    List.length stripped = List.length orig && List.for_all2 Ir.Op.equal stripped orig
  in
  if not same then
    add (err ~code:"EX003" "rewritten body minus copies is not the original body");
  (* EX004: claimed copy count vs the copies actually present. *)
  let present = List.length (List.filter Ir.Op.is_copy (Ir.Loop.ops c.rewritten)) in
  if present <> c.claimed_copies then
    add
      (err ~code:"EX004"
         (Printf.sprintf "claimed %d copies but the rewritten body carries %d"
            c.claimed_copies present));
  (* EX005: the bound must be coherent with the II it bounds. *)
  if c.lower < 1 || c.lower > c.claimed_ii then
    add
      (err ~code:"EX005"
         (Printf.sprintf "lower bound %d is incoherent with claimed II %d" c.lower
            c.claimed_ii));
  (* EX006: optimality means tight, and never below the assignment-independent
     bound this library can recompute on its own. *)
  if c.optimal then begin
    if c.claimed_ii <> c.lower then
      add
        (err ~code:"EX006"
           (Printf.sprintf "optimal claim with II %d above its own lower bound %d"
              c.claimed_ii c.lower));
    let oddg = Ddg.Graph.of_loop ~latency:machine.Mach.Machine.latency c.original in
    let static = Ddg.Minii.min_ii ~width:(Mach.Machine.width machine) oddg in
    if c.claimed_ii < static then
      add
        (err ~code:"EX006"
           (Printf.sprintf
              "optimal claim with II %d below the recomputed machine-level bound %d"
              c.claimed_ii static))
  end;
  List.rev !out
