(** Execution counters, collected per conjunct evaluation.

    These are the quantities the paper reasons with when explaining the
    performance study ("a large number of intermediate results being
    generated … converted into tuples in GetNext and added to D_R"), so the
    benchmark harness reports them alongside wall-clock times.

    The scalar counters here are the raw collection point; the query-level
    view is the per-stream {!Obs.Metrics} registry, which absorbs them
    (via {!record_into}) next to the distribution metrics the engine
    records directly (answer-distance, queue-depth, … histograms). *)

type t = {
  mutable pushes : int;
      (** tuples added to [D_R], counted logically: a cursor (a popped
          tuple's pending successors at one cost) counts, per transition,
          the neighbours it holds that were not yet visited in that
          transition's destination state when it was made — the tuples an
          eager expansion would have queued *)
  mutable materialised : int;
      (** tuples actually built: plain [D_R] pushes (seeds and final
          tuples) and the cursor members [GetNext] reached unvisited, lone
          successors included — these are built at their yield, not when
          their cursor is queued *)
  mutable pops : int;
      (** tuples [GetNext] took up: plain tuples popped from [D_R] and
          cursor members yielded unvisited, lone successors included (at
          most [pushes]) *)
  mutable succ_calls : int;  (** invocations of [Succ] *)
  mutable edges_scanned : int;  (** neighbours returned across all [Succ] calls *)
  mutable scan_ns : int;
      (** time spent inside neighbour scans, in nanoseconds; 0 unless a
          clock is installed in {!Obs.Clock} *)
  mutable batches : int;  (** seed batches delivered by the coroutine *)
  mutable seeds : int;  (** initial nodes added *)
  mutable answers : int;  (** answers emitted *)
  mutable peak_queue : int;
      (** high-water mark of [D_R] in entries: one per plain tuple, and one
          per cursor — an expansion queues one cursor per distinct cost,
          however many transitions and neighbours it holds *)
  mutable restarts : int;  (** distance-aware re-evaluations *)
  mutable pruned : int;  (** pushes suppressed by the ψ ceiling *)
  mutable drop_visited : int;
      (** non-final tuples discarded because their [(v, n, s)] triple had
          already been processed — re-surfacings at a higher distance: plain
          tuples popped, and cursor members found visited when yielded
          (these include members already visited when their cursor was
          made, which [pushes] never counted, so this is not bounded by
          [pops]) *)
  mutable drop_dup : int;
      (** final pops discarded because the [(v, n)] pair was already emitted
          (here or in the restart-suppress table) — the wasted half of the
          final-state re-queue *)
  mutable mem_bytes_peak : int;
      (** high-water mark of the governor's {!Mem} live-bytes estimate —
          set on the engine's stream aggregate (0 on per-conjunct records);
          merges by max, like [peak_queue] *)
  mutable admission_est_states : int;
      (** total post-expansion automaton states the {!Admission} estimate
          computed for the query; 0 when no admission limit was configured
          (the estimate is then never computed); merges by max *)
  mutable degrade_drop_provenance : int;
      (** stage-1 degradations: provenance arenas actually dropped under
          memory pressure *)
  mutable degrade_shrink_psi : int;
      (** stage-2 degradations: psi escalations declined under memory
          pressure (each also trips [Governor.Memory_budget]) *)
  mutable par_shards : int;
      (** always 0: every query runs on one domain.  The three [par_*]
          counters stay in the record and the metric manifest so readers of
          recorded stats keep their fields. *)
  mutable par_busy_total_ns : int;  (** always 0 (see [par_shards]) *)
  mutable par_busy_max_ns : int;  (** always 0 (see [par_shards]); merges by max *)
  mutable gc_minor_words : int;
      (** [Gc.quick_stat] delta over the query: words allocated in the minor
          heap — set on the engine's stream aggregate (0 on per-conjunct
          records) *)
  mutable gc_major_words : int;  (** words allocated in/promoted to the major heap *)
  mutable gc_minor_collections : int;  (** minor GC cycles during the query *)
  mutable gc_major_collections : int;  (** major GC cycles during the query *)
}

val create : unit -> t

val copy : t -> t
(** A snapshot — needed because aggregation entry points
    ([Engine.stream_stats], [Evaluator.stats]) return records they own and
    reuse. *)

val reset : t -> unit

val merge_into : t -> t -> unit
(** [merge_into acc x] adds [x]'s counters into [acc]; the high-water marks
    ([peak_queue], [mem_bytes_peak], [admission_est_states],
    [par_busy_max_ns]) take the max.  Associative and commutative over
    disjoint accumulators (pinned by the observability test suite). *)

val field_names : string list
(** The canonical counter names, in declaration order — the scalar half of
    the metrics manifest ([bench/metrics_manifest.txt]). *)

val to_assoc : t -> (string * int) list
(** Field name → value, in [field_names] order. *)

val record_into : Obs.Metrics.t -> t -> unit
(** Absorb the counters into a metrics registry (as counters named by
    [field_names], values {e set}, not added — call it with the final
    aggregate). *)

val pp : Format.formatter -> t -> unit
(** Renders [scan-ns=n/a] instead of a silent [0] when no clock has been
    installed in {!Obs.Clock}. *)
