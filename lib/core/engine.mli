(** Whole-query evaluation: the public entry point of the Omega engine.

    Evaluates a CRP query against a data graph and its ontology: each
    conjunct is evaluated by {!Evaluator} (per its APPROX/RELAX operator and
    the configured optimisations), multi-conjunct bodies are combined by
    {!Ranked_join}, and the head projection is applied, deduplicating
    projected bindings at their smallest total distance.

    Answers stream in non-decreasing distance; {!run} materialises a prefix,
    which is how the performance study retrieves "the top 100 answers" in
    batches of 10.

    Every evaluation runs under a {!Governor}: wall-clock deadline, tuple
    ceiling, answer cap and cancellation all terminate the stream
    cooperatively — {!next} simply returns [None] and {!status} reports the
    structured reason.  Because emission order is non-decreasing in
    distance, the answers produced before any trip are always a valid
    ranked prefix of the full answer set. *)

type answer = {
  bindings : (string * string) list;
      (** head variable → node label, in head order *)
  distance : int;  (** total edit/relaxation distance of the combination *)
  witnesses : Witness.t list;
      (** one witness per participating conjunct answer, in body order —
          empty unless [options.provenance]; the witnesses' distances sum to
          [distance] *)
}

type termination =
  | Completed
      (** the stream ran to natural exhaustion: the answer set is complete *)
  | Exhausted of { reason : Governor.reason; elapsed_ns : int; tuples : int; answers : int }
      (** the governor tripped ([Tuple_budget] | [Deadline] | [Answer_limit]
          | [Memory_budget] | [Fault _]); the answers emitted before the
          trip are a valid ranked prefix *)
  | Rejected of Admission.rejection
      (** admission control turned the query away before evaluation: no
          evaluation state was built and the graph was never touched
          ([edges_scanned = 0]).  CLI exit code 6. *)

val pp_termination : Format.formatter -> termination -> unit

val exit_code : termination -> int
(** The one exit-code taxonomy, shared by [omega query]'s exit status and
    the query server's response [code]: 0 completed or answer limit
    reached, 3 deadline, 4 tuple or memory budget, 5 fault, 6 rejected by
    admission control.  (The front ends add 2 for usage and parse errors,
    and the server 1 for a crash and 7 for a shed.) *)

type outcome = {
  answers : answer list;  (** in non-decreasing distance *)
  termination : termination;
  stats : Exec_stats.t;  (** aggregated over all conjuncts (a stable snapshot) *)
  metrics : Obs.Metrics.t;
      (** the stream's metrics registry: the distributions the engine
          layers register plus the absorbed [stats] counters — the surface
          pinned in [bench/metrics_manifest.txt] *)
}

val pp_answer : Format.formatter -> answer -> unit

val answers_json : ?witness:(Witness.t -> Obs.Json.t) -> answer list -> Obs.Json.t
(** The one answer codec: a JSON list of
    [{"bindings": {var: label, ...}, "distance": d}] in rank order.  With
    [witness], each object also carries ["witnesses"], the answer's
    witnesses encoded by it ([Witness.to_json] — [omega query --why-json]).
    The query server's responses use it without witnesses. *)

type stream
(** An open query evaluation producing answers on demand. *)

val open_query :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  ?options:Options.t ->
  ?governor:Governor.t ->
  ?tenant:string ->
  Query.t ->
  stream
(** [governor] defaults to a fresh [Options.governor options]; pass one
    explicitly to share a budget across queries or to {!Governor.cancel}
    from outside.  Failpoints are process-global and are not armed here:
    the front ends arm them once at start-up ({!Failpoints.arm_spec}).
    [tenant] (the query
    server's attribution) is stamped into the stream's audit record and
    nothing else — omit it for standalone runs.

    If [options.max_states] or [options.max_product_est] is set, the query
    is vetted by {!Admission} first; a rejected stream is born with no
    evaluation state ({!next} returns [None] immediately, {!status} is
    [Rejected _], and the graph is never touched).
    @raise Invalid_argument if the query fails {!Query.validate}. *)

val next : stream -> answer option
(** The next answer, or [None] when the stream is exhausted {e or} its
    governor tripped — call {!status} to tell the cases apart.  Injected
    faults are converted to a [Fault] termination, not re-raised. *)

val close : stream -> unit
(** Release what the stream still holds — the memory-ledger charges of
    answers a canonical evaluator ([options.domains >= 2]) has staged —
    without tripping the governor (the stream still reports [Completed]).
    Called automatically on every terminal path of {!next} and by
    {!drain}; consumers abandoning a stream mid-way call it themselves.
    Idempotent.

    Also the audit seam: when the process-global {!Obs.Audit} sink is
    enabled, the first close emits the stream's {!audit_record} — one
    record per query, covering drained, abandoned and rejected streams
    alike.  When the sink is disabled this is a single flag check.

    Also the flight-dump seam: when the {!Obs.Flight} recorder is on and a
    dump target is set ([--flight] / [OMEGA_FLIGHT]), the first close
    writes the dump, and an enabled audit sink cross-links it in the
    record's [flight] field. *)

val query_class : stream -> string
(** The query's observatory class — ["exact"] | ["approx"] | ["relax"] |
    ["mixed"] (per the conjuncts' operator modes), with ["+decomposed"]
    appended when decomposition applies to some conjunct and ["+case2"]
    when some conjunct is [(?X, R, C)].  The latency/SLO accounting key. *)

val audit_record : ?flight:Obs.Audit.flight_info -> stream -> Obs.Audit.record
(** The stream's audit record, built from its current state: canonicalised
    query text and hash, {!query_class}, a per-conjunct plan summary
    (rendered from the plans built at open — nothing is recompiled), termination
    taxonomy, admission estimate vs actual tuples, the full
    {!stream_stats} counters with GC deltas and wall/CPU time.  Every
    query runs on one domain, so the record's [shards] is [[]] and its
    [merge_wait_ns] and [imbalance_pct] are 0.  Also the [--stats-json]
    payload. *)

val status : stream -> termination
(** The stream's structured termination status so far: [Completed] while
    nothing has tripped (including mid-stream — it only becomes meaningfully
    "complete" once {!next} has returned [None]). *)

val governor : stream -> Governor.t
(** The stream's governor — poll it for live counters, or
    {!Governor.cancel} it to stop the evaluation cooperatively. *)

val admission : stream -> Admission.estimate option
(** The admission estimate computed at {!open_query} — [Some] iff
    [options.max_states] or [options.max_product_est] was set (admitted or
    rejected alike); [None] means the query was never vetted. *)

val stream_stats : stream -> Exec_stats.t
(** Counters aggregated over all conjuncts so far.  The returned record is
    {e owned and reused} by the stream — polling it mid-stream does not
    perturb the evaluation counters (pinned by a regression test); take an
    [Exec_stats.copy] for a stable snapshot.  The [gc_*] fields are
    [Gc.quick_stat] deltas against the stream's open-time baseline,
    sampled afresh at each call. *)

val metrics : stream -> Obs.Metrics.t
(** The stream's metrics registry: the engine's distribution histograms
    with the current {!stream_stats} counters absorbed
    (re-absorbed at each call, so the scalar values are fresh). *)

val drain : ?limit:int -> stream -> outcome
(** Pull up to [limit] answers (default: all) from an open stream and
    package the result — {!run} is [open_query] followed by [drain].
    Exposed so callers holding a stream (e.g. [--explain-analyze]) can
    finish it and still interrogate the stream afterwards. *)

val explain :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  ?options:Options.t ->
  Query.t ->
  Obs.Explain.plan
(** The physical plan the engine would choose for [q] under [options]:
    per-conjunct automata (compiled for real, so sizes are exact),
    strategies, seeding regimes, join method and governor limits — without
    evaluating anything.
    @raise Invalid_argument if the query fails {!Query.validate}. *)

val annotate : stream -> Obs.Explain.plan -> unit
(** Fill a plan's per-conjunct [counters], the plan [analysis] and the
    wasted-work [profile] section from a stream's live state
    ([--explain-analyze]): call after draining (or at any point
    mid-stream).  The plan must come from {!explain} on the same query —
    conjuncts are matched positionally. *)

val run :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  ?options:Options.t ->
  ?limit:int ->
  Query.t ->
  outcome
(** Evaluate, returning at most [limit] answers (default: all — beware of
    APPROX queries, whose answer sets can be the full node-pair space).
    [limit] is enforced through the governor's answer cap, so reaching it
    reports [Exhausted {reason = Answer_limit; _}].  Budget exhaustion is
    reported through [termination], never raised. *)

val run_string :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  ?options:Options.t ->
  ?limit:int ->
  string ->
  (outcome, string) result
(** Parse with {!Query_parser} and {!run}. *)
