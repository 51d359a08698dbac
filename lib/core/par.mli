(** Domain-pool evaluation with a deterministic ranked merge — the parallel
    seam behind [Options.domains] (see DESIGN.md "Parallel evaluation").

    A [Par.t] runs [domains] plain seed-shard conjuncts, each on its own
    OCaml domain with its own {!Governor.shard_of} governor and its own
    private metrics registry, and recombines their answer streams on the
    consuming domain.  Buckets of the staging queue are released only when
    no live shard can still contribute to them (per-shard streams are
    non-decreasing in distance), and each released bucket is
    sorted by the documented tie-break — ascending [(x, y)] within a
    distance — so the merged stream is {e deterministic}: the same answers
    in the same order at any domain count [>= 2], independent of
    scheduling.

    Budgets stay query-wide: shard governors share the tuple and memory
    atomics of the query governor's {!Governor.Shared} block, the first trip
    anywhere wins, and after a trip the consumer's emitted prefix is exact
    (sealed buckets are complete by construction).  Joined shards roll their
    [Exec_stats], metrics registries and degradation tallies back into the
    stream's accounting. *)

type t

val create :
  domains:int ->
  governor:Governor.t ->
  metrics:Obs.Metrics.t ->
  ?label:string ->
  ?queue_cap:int ->
  build:
    (shard:int ->
    governor:Governor.t ->
    metrics:Obs.Metrics.t ->
    mark:(int -> unit) ->
    (unit -> Conjunct.answer option) * (unit -> Exec_stats.t)) ->
  unit ->
  t
(** Spawn the pool.  [build ~shard ~governor ~metrics] runs {e on the
    worker's domain} and returns the shard's pull function and a stats
    thunk (sampled once, after the shard's last pull); it must construct
    evaluation state from scratch — sharing mutable structures across
    shards is the caller's bug.  Each pull stream must be non-decreasing
    in distance, and no [(x, y)] may come from two shards.

    [mark x] (on the worker, between pulls) promises that the shard has
    delivered every distance-0 answer with [x < x]; marks only rise, and
    a shard that never calls it promises nothing.  The merge emits
    distance-0 answers below the least mark of the shards still owing
    answers as soon as it rises (sorted by [(x, y)], a prefix of the
    sorted distance-0 bucket), instead of waiting for every shard to pass
    distance 0.  [governor] gains a {!Governor.Shared}
    block; its [Governor.Shared.set_on_trip] hook is pointed at the pool's
    wake-up broadcast.

    [label] (default ["shard"]) prefixes the trace-lane names workers give
    their domains ({!Obs.Flight.set_thread_name}: ["<label> <i>"]).
    [queue_cap] (default 8192, min 1) bounds each shard's undrained pending
    list; workers park at the cap until the consumer drains (tests pass
    [1] to exercise park/unpark deterministically).

    When the flight recorder is on ({!Obs.Flight}), the pool logs its
    scheduling events — shard start/done, deliveries, park/unpark, seals
    with their per-shard bound inputs, shard and merge marks, emits,
    stop — under a fresh flow id,
    and a consumer-side watchdog flags shards silent beyond
    [Obs.Flight.stall_threshold_ns] on clocked runs.  With the recorder off
    the only cost is a per-event flag load.

    Records the [par_merge_wait_ns], [par_shard_answers] and
    [par_shard_busy_ns] histograms in [metrics].  Each worker also measures
    its own wall time (when a clock is installed) into the
    [par_busy_total_ns] / [par_busy_max_ns] stats, the raw material of the
    shard load-imbalance metric. *)

val next : t -> Conjunct.answer option
(** The next merged answer, or [None] on exhaustion or when the query
    governor has tripped (the answers already returned are then an exact
    ranked prefix).  Blocks while every sealed bucket is empty and some
    shard is still running.  Returning [None] implies the pool has been
    joined — no domains outlive the stream. *)

val close : t -> unit
(** Stop the pool cooperatively without tripping the governor (an abandoned
    stream still reports [Completed]), join every domain and roll up their
    accounting.  Idempotent; called by [Evaluator.close] /
    [Engine.close]. *)

val merge_stats : t -> into:Exec_stats.t -> unit
(** Merge the stats of every {e completed} shard into [into] (still-running
    shards are excluded — their records are being mutated on other
    domains; after [next] returns [None] or {!close}, all shards are
    included). *)

val shards : t -> int
(** The pool size (the [par_shards] stat). *)

val shard_report : t -> (int * int * int) list
(** Per-shard [(index, busy_ns, answers)] for every {e completed} shard —
    the audit record's shard breakdown.  [busy_ns] is 0 without a clock.
    Complete after [next] has returned [None] or {!close}. *)
