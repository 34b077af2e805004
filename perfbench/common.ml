(* Measurement machinery shared by every workload: the clock, sample
   buffers and quantiles, the timed phase, per-layer accounting and the
   result line. Nothing here calls into the program. *)

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 1) fmt

let log fmt = Printf.ksprintf prerr_endline fmt

(* ------------------------------------------------------------------ *)
(* Samples and statistics                                              *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Linear interpolation between closest ranks, as numpy and Python's
   statistics module (method "inclusive") compute it. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median xs =
  let s = Array.of_list xs in
  Array.sort compare s;
  quantile s 0.5

(* Summed in sorted order, so the mean does not depend on the seeded op
   order down to the last bit. *)
let mean_of f xs =
  match xs with
  | [] -> 0.0
  | _ ->
      List.fold_left ( +. ) 0.0 (List.sort compare (List.map f xs))
      /. float_of_int (List.length xs)

(* Table 2's quality numbers over checked results: mean degradation,
   mean copies, and the share scheduled at the ideal II. *)
let quality (ok : Core.Metrics.loop_metrics list) =
  [
    ("mean_degradation", mean_of (fun (x : Core.Metrics.loop_metrics) -> x.degradation) ok);
    ("mean_copies", mean_of (fun (x : Core.Metrics.loop_metrics) -> float_of_int x.n_copies) ok);
    ( "optimal_ratio",
      mean_of
        (fun (x : Core.Metrics.loop_metrics) -> if x.clustered_ii = x.ideal_ii then 1.0 else 0.0)
        ok );
  ]

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Every workload draws its ops from the paper reproduction's suite,
   Workload.Suite.loops at its default seed 1995 (the suite `rbp report`
   and EXPERIMENTS.md use). Suites generated from other seeds differ in
   total work by up to a third, which no bound could absorb, so the run
   seed draws the order of the ops instead. *)
let suite () = Workload.Suite.loops ()

(* The ops in an order drawn from [seed]. *)
let shuffle ~seed ops = Array.of_list (Util.Prng.shuffle (Util.Prng.create seed) ops)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Runs a set-up [times] times and returns each duration with the last
   result; [dispose] releases every earlier result. *)
let time_setups ~times ?(dispose = ignore) f =
  let rec go k durations prev =
    if k = times then (durations, Option.get prev)
    else begin
      Option.iter dispose prev;
      let t0 = now () in
      let r = f k in
      go (k + 1) ((now () -. t0) :: durations) (Some r)
    end
  in
  go 0 [] None

(* Set-up takes milliseconds, while the host's speed swings last seconds,
   so an untraced run sets up three times before its timed phase and
   three times after it and reports the median of the six. *)
let setup_median ~trace ?(dispose = ignore) f =
  let before, r = time_setups ~times:(if trace then 1 else 3) ~dispose f in
  let after () =
    if trace then nan
    else begin
      let later, last = time_setups ~times:3 ~dispose (fun k -> f (k + 3)) in
      dispose last;
      median (before @ later)
    end
  in
  (r, after)

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)

type 'k phase = {
  first : ('k, string) result array;  (** what the first pass kept of each op *)
  passes : int;
  attempted : int;
  mismatches : int array;  (** later passes where the op failed or disagreed with the first *)
  elapsed : float;  (** seconds inside timed ops *)
  latencies : float array;  (** per-op milliseconds, sorted *)
}

(* Whole passes over [ops] until the timed ops add up to at least
   [seconds]. Only whole passes count, so every op weighs the same in
   throughput and quantiles however fast the host runs, and the first
   pass alone carries the deterministic quality numbers. Only the ops
   themselves are timed: [keep i r] (which may check the first pass's
   result and retain a summary of it), the comparison [same kept r] of a
   later result, and [between], run before every later pass, are not. *)
let passes ~seconds ?(between = ignore) ~keep ~same ops run =
  let n = Array.length ops in
  let first = Array.make n (Error "not run") in
  let lat = Samples.create () in
  let mismatches = Array.make n 0 in
  let elapsed = ref 0.0 and npass = ref 0 in
  while !npass = 0 || !elapsed < seconds do
    if !npass > 0 then between ();
    for i = 0 to n - 1 do
      let t0 = now () in
      let r = try run i ops.(i) with e -> Error (Printexc.to_string e) in
      let dt = now () -. t0 in
      Samples.add lat (1000.0 *. dt);
      elapsed := !elapsed +. dt;
      if !npass = 0 then first.(i) <- Result.bind r (keep i)
      else
        match (first.(i), r) with
        | Ok k, Ok b when same k b -> ()
        | _ -> mismatches.(i) <- mismatches.(i) + 1
    done;
    incr npass
  done;
  { first; passes = !npass; attempted = n * !npass; mismatches; elapsed = !elapsed;
    latencies = Samples.sorted lat }

let keep_all _ r = Ok r

(* The kept values of first-pass ops that passed, with a verdict per op;
   failures are reported on standard error. *)
let passed_ops ~workload p =
  let passed = Array.map Result.is_ok p.first in
  Array.iter (function Error e -> log "%s: %s" workload e | Ok _ -> ()) p.first;
  (List.filter_map Result.to_option (Array.to_list p.first), passed)

let throughput p = float_of_int p.attempted /. p.elapsed

(* Failed ops over every pass: an op whose first-pass result failed its
   check fails in every pass; otherwise each disagreeing repeat fails. *)
let failures p (passed : bool array) =
  let f = ref 0 in
  Array.iteri (fun i ok -> f := !f + if ok then p.mismatches.(i) else p.passes) passed;
  !f

(* ------------------------------------------------------------------ *)
(* Per-layer accounting for the traced mode                            *)

(* A layer's self time and minor-heap allocation, summed over every
   call. The benchmark's spans wrap leaf calls into the program, so a
   span's duration is its self time. Allocation is recorded on the first
   traced pass only: it is deterministic per call there, while later
   passes could differ by one-time lazy initialisation. *)
module Layers = struct
  type acc = { mutable ms : float; mutable kw : float }

  let table : (string, acc) Hashtbl.t = Hashtbl.create 32
  let counts : (string, float) Hashtbl.t = Hashtbl.create 32
  let first_pass = ref true

  let acc name =
    match Hashtbl.find_opt table name with
    | Some a -> a
    | None ->
        let a = { ms = 0.0; kw = 0.0 } in
        Hashtbl.replace table name a;
        a

  let span name f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let a = acc name in
    a.ms <- a.ms +. (1000.0 *. (t1 -. t0));
    if !first_pass then a.kw <- a.kw +. ((w1 -. w0) /. 1000.0);
    r

  (* Counts are summed over the first traced pass only. *)
  let count name x =
    if !first_pass then
      Hashtbl.replace counts name
        (x +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

  let add_ms name x =
    let a = acc name in
    a.ms <- a.ms +. x

  let ms name = match Hashtbl.find_opt table name with Some a -> a.ms | None -> 0.0
  let kw name = match Hashtbl.find_opt table name with Some a -> a.kw | None -> 0.0
  let total name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

  let spans_ms () = Hashtbl.fold (fun _ a acc -> acc +. a.ms) table 0.0
end

(* The traced phase: [passes] over the traced composition, flipping the
   layer accounting to timing-only after the first pass. *)
let traced_passes ~seconds ?between ~keep ~same ops run =
  Layers.first_pass := true;
  let n = Array.length ops in
  let run i op =
    if i = n - 1 then Fun.protect ~finally:(fun () -> Layers.first_pass := false) (fun () -> run i op)
    else run i op
  in
  passes ~seconds ?between ~keep ~same ops run

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error e -> fail "cannot read %s: %s" path e
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            else find ()
      in
      let r = find () in
      close_in ic;
      (match r with Some v -> v | None -> fail "no VmHWM line in %s" path)

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last line of standard output: one JSON object the caller parses.
   Values keep every digit as measured. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then fail "metric %s is not finite (%f)" x.name x.value)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
