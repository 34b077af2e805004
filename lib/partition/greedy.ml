let partition ?obs ?(weights = Rcg.Weights.default) ~banks g =
  if banks < 1 then invalid_arg "Greedy.partition: banks must be >= 1";
  let n = Rcg.Graph.node_count g in
  Obs.Trace.span obs "greedy.partition"
    ~attrs:[ ("nodes", string_of_int n); ("banks", string_of_int banks) ]
  @@ fun () ->
  let expected_per_bank = max 1.0 (float_of_int n /. float_of_int banks) in
  let mean_edge = Rcg.Graph.mean_positive_edge_weight g in
  let balance_penalty = weights.Rcg.Weights.balance *. mean_edge /. expected_per_bank in
  let traced = obs <> None in
  if traced then
    Obs.Trace.emit obs
      (Obs.Events.Greedy_penalty { penalty = balance_penalty; mean_edge; nodes = n; banks });
  (* Bank of each node, -1 while unplaced. *)
  let bank = Array.make n (-1) in
  let counts = Array.make banks 0 in
  let place i b =
    bank.(i) <- b;
    counts.(b) <- counts.(b) + 1
  in
  (* A bank's benefit is the sum of the edge weights to the node's
     neighbours already in it, in ascending neighbour order, minus the
     balance penalty for the bank's population. One pass over the node's
     row sums every bank. *)
  let benefits = Array.make banks 0.0 in
  Array.iter
    (fun i ->
      let node = Rcg.Graph.register g i in
      match Rcg.Graph.pinned g node with
      | Some b ->
          if b < 0 || b >= banks then
            invalid_arg
              (Printf.sprintf "Greedy.partition: %s pinned to bank %d (of %d)"
                 (Ir.Vreg.to_string node) b banks);
          if traced then
            Obs.Trace.emit obs
              (Obs.Events.Greedy_place
                 {
                   node = Ir.Vreg.to_string node;
                   bank = b;
                   benefit = 0.0;
                   benefits = [];
                   ties = [];
                   pinned = true;
                 });
          place i b
      | None ->
          Array.fill benefits 0 banks 0.0;
          Rcg.Graph.iter_neighbors g i (fun j w ->
              let b = bank.(j) in
              if b >= 0 then benefits.(b) <- benefits.(b) +. w);
          let best = ref 0 in
          let best_benefit = ref neg_infinity in
          let ties = ref 1 in
          for b = 0 to banks - 1 do
            let v = benefits.(b) -. (balance_penalty *. float_of_int counts.(b)) in
            benefits.(b) <- v;
            if v > !best_benefit then begin
              best_benefit := v;
              best := b;
              ties := 1
            end
            else if v = !best_benefit then incr ties
          done;
          if traced then begin
            let tied =
              if !ties > 1 then
                List.filter
                  (fun b -> benefits.(b) = !best_benefit)
                  (List.init banks Fun.id)
              else []
            in
            Obs.Trace.emit obs
              (Obs.Events.Greedy_place
                 {
                   node = Ir.Vreg.to_string node;
                   bank = !best;
                   benefit = !best_benefit;
                   benefits = Array.to_list benefits;
                   ties = tied;
                   pinned = false;
                 })
          end;
          place i !best)
    (Rcg.Graph.placement_order g);
  Assign.of_list (List.init n (fun i -> (Rcg.Graph.register g i, bank.(i))))
