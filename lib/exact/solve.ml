type status =
  | Optimal of Witness.t
  | Bound of { lower : int; best : Witness.t option }
  | Budget_exhausted of { lower : int; best : Witness.t option }

type t = {
  status : status;
  best_mii : int;
  best_copies : int;
  stats : Search.stats;
  diags : Verify.Diag.t list;
  n_regs : int;
}

let default_budget = 300_000
let slice_max_vregs = 12

let status_name = function
  | Optimal _ -> "optimal"
  | Bound _ -> "bound"
  | Budget_exhausted _ -> "budget-exhausted"

let lower t =
  match t.status with
  | Optimal w -> w.Witness.ii
  | Bound { lower; _ } | Budget_exhausted { lower; _ } -> lower

let witness t =
  match t.status with
  | Optimal w -> Some w
  | Bound { best; _ } | Budget_exhausted { best; _ } -> best

let solve ?(budget = default_budget) ?cancel ?seed_assignment ~machine loop =
  let m : Mach.Machine.t = machine in
  let sp = Space.build loop in
  let ddg = Ddg.Graph.of_loop ~latency:m.Mach.Machine.latency loop in
  let static = Bounds.static_lower ~machine:m ddg in
  let seeds =
    Array.make sp.Space.n 0
    ::
    (match seed_assignment with
    | None -> []
    | Some a -> ( match Space.of_assignment sp a with Some v -> [ v ] | None -> []))
  in
  let o = Search.run ?cancel ~budget ~machine:m ~space:sp ~static_lower:static ~seeds () in
  let best =
    match Witness.realize ~machine:m ~loop (Space.to_assignment sp o.Search.best) with
    | Ok w -> Some w
    | Error _ -> None
  in
  let finish status diags =
    {
      status;
      best_mii = o.Search.best_mii;
      best_copies = o.Search.best_copies;
      stats = o.Search.stats;
      diags;
      n_regs = sp.Space.n;
    }
  in
  if not o.Search.complete then
    let diags =
      match best with
      | None -> []
      | Some w -> Witness.check ~machine:m ~loop ~lower:static ~optimal:false w
    in
    finish (Budget_exhausted { lower = static; best }) diags
  else
    (* The space was exhausted: the incumbent MinII is the true minimum. *)
    let b_star = o.Search.best_mii and c_star = o.Search.best_copies in
    match best with
    | Some w when w.Witness.ii = b_star && w.Witness.copies = c_star -> (
        let diags = Witness.check ~machine:m ~loop ~lower:b_star ~optimal:true w in
        match Verify.Diag.errors diags with
        | [] -> finish (Optimal w) diags
        | _ :: _ -> finish (Bound { lower = b_star; best = Some w }) diags)
    | Some w ->
        (* Proven bound, but the scheduler could not realize it (II above
           MinII) or copy counts drifted — demote honestly. *)
        finish
          (Bound { lower = b_star; best = Some w })
          (Witness.check ~machine:m ~loop ~lower:b_star ~optimal:false w)
    | None -> finish (Bound { lower = b_star; best = None }) []
