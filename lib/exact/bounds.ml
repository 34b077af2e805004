type leaf = { mii : int; copies : int }

let static_lower ~machine ddg = Ddg.Minii.min_ii ~width:(Mach.Machine.width machine) ddg

let copies_mii ~machine (ins : Partition.Copies.result) =
  match
    Partition.Driver.rebuild
      ~loads:(ins.Partition.Copies.ops_per_cluster, ins.Partition.Copies.copies_per_cluster)
      ~machine ~assignment:ins.Partition.Copies.assignment ins.Partition.Copies.loop
  with
  | Ok rb -> rb.Partition.Driver.mii
  | Error e -> invalid_arg e.Verify.Stage_error.message

let leaf_exact ~machine ~loop assignment =
  let ins = Partition.Copies.insert_loop ~machine ~assignment loop in
  { mii = copies_mii ~machine ins; copies = ins.Partition.Copies.n_copies }

let compare_score (m1, c1) (m2, c2) =
  let c = compare (m1 : int) m2 in
  if c <> 0 then c else compare (c1 : int) c2
