(** The decision-provenance event taxonomy.

    Where {!Counter} answers "how many", an event answers "why this
    one": each constructor records one heuristic decision a pipeline
    stage took, with the inputs that drove it. Payloads are primitive
    (register names, op ids, bank indices) so this module depends on
    nothing — the domain libraries construct events, {!Trace} stores
    them, and the exporters / [rbp explain] render them.

    Events are evidence, not state: nothing in the pipeline ever reads
    them back, so a stage may emit as many or as few as its narrative
    needs without affecting what it computes. A counter that summarises
    an event is a tally of it ({!Trace.emit}; see {!Counter}). *)

type term = Attract | Repel
(** The two RCG edge-weight terms of Section 5: def/use pairs within
    one operation attract; def/def pairs within one instruction of the
    ideal schedule repel. *)

type t =
  | Rcg_factor of {
      op : int;  (** op id *)
      flexibility : int;
      depth : int;
      density : float;
      factor : float;  (** the resulting {!Weights.contribution} *)
    }
      (** One operation's weight factor, recorded as the RCG builder
          visits it — the per-op input to every edge it contributes. *)
  | Rcg_edge of {
      a : string;  (** register name *)
      b : string;
      term : term;
      w : float;  (** signed contribution added to the edge *)
    }
      (** One edge-weight contribution (a pair may accumulate several). *)
  | Greedy_penalty of {
      penalty : float;  (** balance penalty per already-placed register *)
      mean_edge : float;  (** mean positive RCG edge weight *)
      nodes : int;
      banks : int;
    }  (** Emitted once per greedy run, before any placement. *)
  | Greedy_place of {
      node : string;  (** register name *)
      bank : int;  (** chosen bank *)
      benefit : float;  (** winning benefit (0 when pinned) *)
      benefits : float list;  (** per-bank benefits, index = bank; [] when pinned *)
      ties : int list;  (** banks sharing the best benefit, when >= 2 tied *)
      pinned : bool;
    }  (** One placement decision, in placement (node-weight) order. *)
  | Copy_route of {
      reg : string;  (** source register (the def being routed) *)
      copy : string;  (** fresh destination register of the copy *)
      src_bank : int;
      dst_bank : int;
      reaching : string;  (** ["invariant"], ["carried"] or ["op<ID>"] *)
    }  (** One inserted cross-bank copy with its def/use route. *)
  | Ii_escalate of {
      ii : int;  (** the candidate II that was abandoned *)
      cause : string;
          (** ["rec_mii"] (height fixpoint diverged), ["self_edge"],
              ["resource"] (a request no table row satisfies; for Swing
              also no free slot in a node's window), or ["budget"] (Rau's
              placement budget exhausted) *)
    }  (** A modulo scheduler (Rau or Swing) giving up on one candidate II. *)
  | Sched_evict of {
      op : int;  (** evicted op id *)
      by : int;  (** op id whose placement forced the eviction *)
      cycle : int;  (** cycle [by] was placed at *)
      reason : string;  (** ["conflict"] (resources) or ["dependence"] *)
    }  (** One link of an eviction chain (Rau force-placement). *)
  | Spill of {
      reg : string;
      bank : int;
      round : int;  (** colouring round that spilled it *)
    }
  | Alloc_pressure of {
      bank : int;
      round : int;
      pressure : int;  (** max-clique lower bound *)
      conflict_nodes : int;
      conflict_edges : int;
    }  (** Per-bank interference summary of one colouring round. *)

val name : t -> string
(** Stable dotted tag used by every exporter: [rcg.factor], [rcg.edge],
    [greedy.penalty], [greedy.place], [copies.route], [sched.escalate],
    [sched.evict], [alloc.spill], [alloc.pressure]. *)

val to_json : t -> Json.t
(** [{"type":"event","name":<name>, ...payload fields}] — one flat
    object, field names as in the constructor. *)

val to_string : t -> string
(** One human-readable line (no trailing newline) — the narrative form
    [rbp explain] prints. *)
