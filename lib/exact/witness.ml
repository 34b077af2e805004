type t = {
  assignment : Partition.Assign.t;
  rewritten : Ir.Loop.t;
  ddg : Ddg.Graph.t;
  kernel : Sched.Kernel.t;
  ii : int;
  mii : int;
  copies : int;
}

let realize ~machine ~loop assignment =
  match Partition.Copies.insert_loop ~machine ~assignment loop with
  | exception Invalid_argument msg -> Error msg
  | ins -> (
      match
        Partition.Driver.rebuild
          ~loads:(ins.Partition.Copies.ops_per_cluster, ins.Partition.Copies.copies_per_cluster)
          ~machine ~assignment:ins.Partition.Copies.assignment ins.Partition.Copies.loop
      with
      | Error e -> Error e.Verify.Stage_error.message
      | Ok { ddg; cluster_of; mii } -> (
          match Sched.Modulo.schedule ~cluster_of ~machine ~mii ddg with
          | None ->
              Error
                (Printf.sprintf "no feasible II found for the clustered pipeline (MII %d)" mii)
          | Some outcome ->
              Ok
                {
                  assignment = ins.Partition.Copies.assignment;
                  rewritten = ins.Partition.Copies.loop;
                  ddg;
                  kernel = outcome.Sched.Modulo.kernel;
                  ii = outcome.Sched.Modulo.ii;
                  mii;
                  copies = ins.Partition.Copies.n_copies;
                }))

let check ~machine ~loop ~lower ~optimal w =
  Verify.Exact_check.check ~machine
    {
      Verify.Exact_check.original = loop;
      rewritten = w.rewritten;
      assignment = w.assignment;
      kernel = w.kernel;
      ddg = w.ddg;
      claimed_ii = w.ii;
      claimed_copies = w.copies;
      lower;
      optimal;
    }
