(* Shared helpers for the test suites. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  (* a fixed generator seed keeps property tests reproducible in CI *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; Hashtbl.hash name |])
    (QCheck2.Test.make ~count ~name gen prop)

(* Small machines used across suites. *)
let ideal16 = Mach.Machine.paper_ideal
let m2x8e = Mach.Machine.paper_clustered ~clusters:2 ~copy_model:Mach.Machine.Embedded
let m4x4e = Mach.Machine.paper_clustered ~clusters:4 ~copy_model:Mach.Machine.Embedded
let m4x4c = Mach.Machine.paper_clustered ~clusters:4 ~copy_model:Mach.Machine.Copy_unit
let m8x2e = Mach.Machine.paper_clustered ~clusters:8 ~copy_model:Mach.Machine.Embedded
let m8x2c = Mach.Machine.paper_clustered ~clusters:8 ~copy_model:Mach.Machine.Copy_unit

(* A deterministic set of loops spanning kernels and generated shapes. *)
let sample_loops ?(n = 24) () = Workload.Suite.loops ~n:(max n 1) ()

let gen_loop_seed : int QCheck2.Gen.t = QCheck2.Gen.int_range 0 10_000

let loop_of_seed seed =
  (* Mix generated and kernel loops by seed parity. *)
  if seed mod 3 = 0 then
    let kernels = Workload.Kernels.all in
    let name, k = List.nth kernels (seed / 3 mod List.length kernels) in
    ignore name;
    k ~unroll:(1 + (seed mod 4))
  else Workload.Loopgen.generate ~seed:(seed * 7 + 1) ~index:seed ()

let vreg ?(cls = Mach.Rclass.Float) id = Ir.Vreg.make ~id ~cls ()

(* Equivalence of two evaluation states on memory and named registers. *)
let mem_equal sa sb =
  let a = Ir.Eval.mem_snapshot sa and b = Ir.Eval.mem_snapshot sb in
  List.length a = List.length b
  && List.for_all2
       (fun (b1, i1, v1) (b2, i2, v2) ->
         String.equal b1 b2 && i1 = i2 && Ir.Eval.value_equal v1 v2)
       a b

let mem_diff sa sb =
  let a = Ir.Eval.mem_snapshot sa and b = Ir.Eval.mem_snapshot sb in
  let fmt (base, i, v) = Format.asprintf "%s[%d]=%a" base i Ir.Eval.pp_value v in
  Printf.sprintf "A: %s\nB: %s"
    (String.concat " " (List.map fmt a))
    (String.concat " " (List.map fmt b))

(* Seed the same initial register/memory state into two states so loop
   inputs agree (Eval's deterministic-hash defaults make this mostly
   redundant; kept for explicitness with live-in registers). *)
let seed_state st loop =
  Ir.Vreg.Set.iter
    (fun r ->
      let v =
        match Ir.Vreg.cls r with
        | Mach.Rclass.Int -> Ir.Eval.I (Ir.Vreg.id r + 3)
        | Mach.Rclass.Float -> Ir.Eval.F (float_of_int (Ir.Vreg.id r) /. 4.0)
      in
      Ir.Eval.set_reg st r v)
    (Ir.Loop.invariants loop)

let cluster_of_loop assignment loop = Partition.Driver.cluster_map assignment loop

let all_zero_clusters _ = 0

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The suite corpus the reference oracles share, built once per test
   run: every suite loop with, for each paper configuration, the
   rewritten (copy-carrying) body [Partition.Driver.pipeline] emits, or
   its failure message. *)
let corpus =
  lazy
    (List.map
       (fun loop ->
         ( loop,
           List.map
             (fun (cfg : Core.Experiment.config) ->
               ( cfg,
                 match Partition.Driver.pipeline ~machine:cfg.machine loop with
                 | Ok r -> Ok r.Partition.Driver.rewritten
                 | Error e -> Error (Ir.Loop.name loop ^ ": " ^ e.Verify.Stage_error.message) ))
             Core.Experiment.paper_configs ))
       (Workload.Suite.loops ()))

(* The rewritten body of [loop] on [cfg], failing the test case when
   the pipeline failed. *)
let rewritten_exn = function Ok body -> body | Error msg -> Alcotest.fail msg

(* Tarjan's SCCs over [Graphlib.Digraph]'s tables, kept verbatim from
   before [Graphlib.Scc] ran over compressed rows: the reference
   [graphlib.scc-ref] and the RecMII reference compare against. *)
module Scc_ref = struct
  module Digraph = Graphlib.Digraph

  (* Recursive Tarjan: [strongconnect] recurses once per node along a DFS
     path, so the OCaml stack depth grows with the longest such path. *)

  let tarjan g =
    let index = Hashtbl.create 64 in
    let lowlink = Hashtbl.create 64 in
    let on_stack = Hashtbl.create 64 in
    let stack = ref [] in
    let counter = ref 0 in
    let components = ref [] in
    let rec strongconnect v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v true;
      List.iter
        (fun (e : _ Digraph.edge) ->
          let w = e.dst in
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.find_opt on_stack w = Some true then
            Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (Digraph.succs g v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              Hashtbl.replace on_stack w false;
              if w = v then w :: acc else pop (w :: acc)
        in
        let comp = pop [] in
        components := List.sort Int.compare comp :: !components
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (Digraph.nodes g);
    List.rev !components

  let has_self_edge g v = List.exists (fun (e : _ Digraph.edge) -> e.dst = v) (Digraph.succs g v)

  let nontrivial g =
    List.filter
      (function
        | [] -> false
        | [ v ] -> has_self_edge g v
        | _ :: _ :: _ -> true)
      (tarjan g)

  let condensation g =
    let comps = tarjan g in
    let max_id = List.fold_left (fun acc n -> max acc n) (-1) (Digraph.nodes g) in
    let comp_of = Array.make (max_id + 1) (-1) in
    List.iteri (fun ci comp -> List.iter (fun v -> comp_of.(v) <- ci) comp) comps;
    let dag = Digraph.create () in
    List.iteri (fun ci _ -> Digraph.add_node dag ci) comps;
    let seen = Hashtbl.create 64 in
    Digraph.iter_edges
      (fun e ->
        let a = comp_of.(e.src) and b = comp_of.(e.dst) in
        if a <> b && not (Hashtbl.mem seen (a, b)) then begin
          Hashtbl.add seen (a, b) ();
          Digraph.add_edge dag ~src:a ~dst:b ()
        end)
      g;
    (comp_of, dag)
end
