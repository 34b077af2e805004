type span = {
  name : string;
  start : float;
  mutable attrs : (string * string) list;
  mutable stop : float;
  mutable children : span list;
}

type t = {
  clock : Clock.t;
  mutable stack : span list; (* open spans, innermost first *)
  mutable root_spans : span list; (* completed roots, newest first *)
  counters : (Counter.t * string option, int ref) Hashtbl.t;
  gauges : (Counter.gauge * string option, (int * int) ref) Hashtbl.t;
  keep_events : bool;
  mutable events : Events.t list; (* newest first *)
  mutable event_count : int;
}

let make ?(events = true) ~clock () =
  {
    clock;
    stack = [];
    root_spans = [];
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    keep_events = events;
    events = [];
    event_count = 0;
  }

let enter t ~attrs name =
  let s = { name; attrs; start = t.clock (); stop = nan; children = [] } in
  t.stack <- s :: t.stack

let exit_current t =
  match t.stack with
  | [] -> () (* unbalanced close: ignore rather than raise in a probe *)
  | s :: rest ->
      s.stop <- t.clock ();
      s.children <- List.rev s.children;
      t.stack <- rest;
      (match rest with
      | parent :: _ -> parent.children <- s :: parent.children
      | [] -> t.root_spans <- s :: t.root_spans)

let span obs ?(attrs = []) name f =
  match obs with
  | None -> f ()
  | Some t ->
      enter t ~attrs name;
      Fun.protect ~finally:(fun () -> exit_current t) f

let add_attr obs k v =
  match obs with
  | None -> ()
  | Some t -> (
      match t.stack with
      | [] -> ()
      | s :: _ -> s.attrs <- s.attrs @ [ (k, v) ])

let add_counter t ?label c n =
  let key = (c, label) in
  match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters key (ref n)

let observe_gauge t ?label g v =
  let key = (g, label) in
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r := (v, max v (snd !r))
  | None -> Hashtbl.replace t.gauges key (ref (v, v))

let incr obs ?label c n = match obs with None -> () | Some t -> add_counter t ?label c n

let set_gauge obs ?label g v =
  match obs with None -> () | Some t -> observe_gauge t ?label g v

(* The event -> cell map: every counter or gauge that summarises a
   decision event is fed here, from the event itself, and nowhere else —
   so a derived cell exists exactly when one of its events was emitted
   and can never disagree with the stream it tallies. *)
let tally t (e : Events.t) =
  let bump ?label c = add_counter t ?label c 1 in
  match e with
  | Greedy_place { pinned = true; _ } -> bump Counter.Greedy_pinned
  | Greedy_place { ties; _ } ->
      bump Counter.Greedy_decisions;
      if ties <> [] then bump Counter.Greedy_tie_breaks
  | Sched_evict _ -> bump Counter.Sched_evictions
  | Ii_escalate { cause; _ } ->
      bump Counter.Sched_ii_escalations;
      if cause = "budget" then bump Counter.Sched_budget_exhausted
  | Copy_route { src_bank; dst_bank; _ } ->
      bump ~label:(Printf.sprintf "%d->%d" src_bank dst_bank) Counter.Copies_inserted
  | Spill _ -> bump Counter.Spilled_registers
  | Alloc_pressure { bank; conflict_nodes; conflict_edges; _ } ->
      let label = Printf.sprintf "bank%d" bank in
      observe_gauge t ~label Counter.Alloc_conflict_nodes conflict_nodes;
      observe_gauge t ~label Counter.Alloc_conflict_edges conflict_edges
  | Rcg_factor _ | Rcg_edge _ | Greedy_penalty _ -> ()

let emit obs e =
  match obs with
  | None -> ()
  | Some t ->
      if t.keep_events then begin
        t.events <- e :: t.events;
        t.event_count <- t.event_count + 1
      end;
      tally t e

let events t = List.rev t.events
let event_count t = t.event_count

let iter_events f t = List.iter f (events t)

let merge ~into child =
  (* Fold a quiescent per-job context into the submitting context, in
     one place so every fold site (the engine barrier) agrees on the
     order: spans under the innermost open span (or as new roots),
     counters summed, gauges last-wins/max-folds, events appended in
     the child's emission order. Called only from the submitting
     domain, after every worker joined. *)
  let completed = List.rev child.root_spans in
  (match into.stack with
  | s :: _ -> List.iter (fun r -> s.children <- r :: s.children) completed
  | [] -> List.iter (fun r -> into.root_spans <- r :: into.root_spans) completed);
  Hashtbl.iter (fun (c, label) r -> add_counter into ?label c !r) child.counters;
  Hashtbl.iter
    (fun key r ->
      let last, mx = !r in
      match Hashtbl.find_opt into.gauges key with
      | Some r' -> r' := (last, max mx (snd !r'))
      | None -> Hashtbl.replace into.gauges key (ref (last, mx)))
    child.gauges;
  into.events <- child.events @ into.events;
  into.event_count <- into.event_count + child.event_count

let roots t =
  (* Spans still open (a trace exported mid-flight) are presented as
     they are; their children lists are reversed in place at close, so
     only close order determines the exported structure. *)
  List.rev t.root_spans

let duration s = if Float.is_nan s.stop then 0.0 else s.stop -. s.start

let counters t =
  Hashtbl.fold (fun (c, label) r acc -> (Counter.name c, label, !r) :: acc) t.counters []
  |> List.sort compare

let gauges t =
  Hashtbl.fold
    (fun (g, label) r acc ->
      let last, mx = !r in
      (Counter.gauge_name g, label, last, mx) :: acc)
    t.gauges []
  |> List.sort compare

let counter_value t ?label c =
  match Hashtbl.find_opt t.counters (c, label) with Some r -> !r | None -> 0

let counter_total t c =
  Hashtbl.fold (fun (c', _) r acc -> if c' = c then acc + !r else acc) t.counters 0

let iter_spans f t =
  let rec go depth s =
    f ~depth s;
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) (roots t)
