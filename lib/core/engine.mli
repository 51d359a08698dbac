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
    from outside.  If [options.failpoints] is set, the spec is armed
    (process-globally) before evaluation starts.  [tenant] (the query
    server's attribution) is stamped into the stream's audit record and
    nothing else — omit it for standalone runs.

    If [options.max_states] or [options.max_product_est] is set, the query
    is vetted by {!Admission} first; a rejected stream is born with no
    evaluation state ({!next} returns [None] immediately, {!status} is
    [Rejected _], and the graph is never touched).
    @raise Invalid_argument if the query fails {!Query.validate} or the
    failpoint spec does not parse. *)

val next : stream -> answer option
(** The next answer, or [None] when the stream is exhausted {e or} its
    governor tripped — call {!status} to tell the cases apart.  Injected
    faults are converted to a [Fault] termination, not re-raised. *)

val close : stream -> unit
(** Release resources that outlive the stream — parallel evaluators' domain
    pools ([options.domains > 1]), which are joined without tripping the
    governor (the stream still reports [Completed]).  Called automatically
    on every terminal path of {!next} and by {!drain}; consumers abandoning
    a stream mid-way must call it themselves, or the pool's OCaml domains
    leak.  Idempotent.

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
    query text and hash, {!query_class}, a per-conjunct plan summary (the
    automata are recompiled — never call this on a hot path), termination
    taxonomy, admission estimate vs actual tuples, the full
    {!stream_stats} counters with GC deltas, wall/CPU time, and the
    per-shard breakdown of parallel conjuncts.  Also the [--stats-json]
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
