(** Conjunct evaluation strategies: plain, distance-aware, and
    alternation-decomposed (§4.3).

    - {b Plain} — one {!Conjunct} evaluation run to exhaustion (or budget).
    - {b Distance-aware} ([options.distance_aware]) — evaluate with a cost
      ceiling ψ = 0, then restart from scratch with ψ += φ (the smallest
      positive operation cost) as long as more answers are required and the
      previous run pruned something.  Answers already emitted are suppressed
      across restarts.  This avoids processing tuples costlier than the
      answers the user asked for, at the price of re-evaluation per level —
      the paper notes it is "not suitable in cases where answers at high
      cost are required".
    - {b Decomposed} ([options.decompose], applicable when the regular
      expression is a top-level alternation [R1 | R2 | …]) — each
      alternative becomes a sub-automaton evaluated level-by-level as in
      distance-aware mode; within each level the sub-automata are processed
      in order of increasing answer count at the previous level (default
      order at level 0), so cheap branches are drained first.  Falls back to
      the other strategies when there is no top-level alternation.

    All strategies yield answers in non-decreasing distance and dedupe
    [(x, y)] pairs, keeping the smallest distance.

    The evaluator decides none of this: it runs the conjunct's {!Plan},
    which fixed the strategy, the parts and their compiled automata, and
    the emission order.  Restarts reopen the plan's parts and never
    recompile.

    {b Canonical order} ([options.domains >= 2], [Plan.canonical]) — a
    plain [(?X, R, ?Y)] conjunct walks its seeds in ascending oid order and
    its stream is reordered on the calling domain: the same answers in
    ascending [(distance, x, y)] order.  Each distance bucket is held until
    it is whole and released sorted; exact answers are released as soon as
    they lie below the seed frontier.  Every other conjunct —
    constant-seeded, distance-aware or decomposed — keeps its sequential
    order regardless of [options.domains]. *)

type t

val of_plan :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  options:Options.t ->
  ?governor:Governor.t ->
  ?metrics:Obs.Metrics.t ->
  Plan.t ->
  t
(** Evaluate a plan built by {!Plan.make} with the same [graph],
    [ontology] and [options].  [governor] (default: a fresh one implementing the options' limits) is
    shared by every conjunct run this evaluator opens, including
    distance-aware/decomposed restarts — so the tuple budget is cumulative
    across ψ levels, and a deadline or cancellation also stops the restart
    loop itself.  [metrics] (default: a fresh private registry) is likewise
    shared by every conjunct run, so histograms accumulate across restarts. *)

val create :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  options:Options.t ->
  ?governor:Governor.t ->
  ?metrics:Obs.Metrics.t ->
  Query.conjunct ->
  t
(** [of_plan] over [Plan.make ~graph ~ontology ~options conjunct]: plan and
    evaluate a lone conjunct on the calling domain. *)

val next : t -> Conjunct.answer option
(** Next answer, or [None] when exhausted or when the governor tripped
    (read [Governor.termination] to tell which); the answers already
    returned are a valid ranked prefix either way.
    @raise Failpoints.Injected when an armed failpoint fires mid-pull. *)

val stats : t -> Exec_stats.t
(** Counters aggregated over all runs/sub-automata so far.  The returned
    record is {e owned and reused} by the evaluator (polling mid-stream
    allocates nothing); take an [Exec_stats.copy] for a stable snapshot. *)

val close : t -> unit
(** Release what an abandoned stream still holds: the memory-ledger
    charges of a canonical evaluator's staged answers (without tripping
    the governor — the stream still reports [Completed]).  A no-op on the
    other evaluators.  Idempotent; called by [Engine.close]. *)
