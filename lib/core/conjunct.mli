(** Evaluation of a single query conjunct — the paper's [Open], [GetNext]
    and [Succ] procedures (§3.3–§3.4).

    A conjunct [(X, R, Y)] is evaluated by exploring the weighted product
    automaton [H_R] of the conjunct's NFA and the data graph lazily, tuple by
    tuple, returning answers [(v, n, d)] in non-decreasing distance [d].

    The three initialisation cases of [Open], decided once per query by
    {!Plan}:
    + [(C, R, ?Y)] — start from the node labelled [C]; under RELAX, if [C]
      is a class, also start from every super-class node, most specific
      first, at distance [depth × beta] ([GetAncestors]);
    + [(?X, R, C)] — rewritten to [(C, R⁻, ?X)] (regex reversal, linear
      time); answers are swapped back;
    + [(?X, R, ?Y)] — seeds are delivered in batches by {!Seeder}.

    Implementation notes mirroring §3.4:
    - [D_R] pops minimum distance with final-tuple priority;
    - [Succ] is lazy: expanding a tuple queues one {e cursor} per
      distinct cost among its transitions, holding that cost's segments in
      push order — per transition, the neighbour ranges it leads to,
      slices of the CSR index (one per label of a RELAX sub-property
      closure), or a lone neighbour — and [GetNext] yields a cursor's
      neighbours one at a time, last segment first and each segment last
      first, while it is on top of its bucket's stack.  The pop sequence
      is exactly that of queueing every successor tuple at once, without
      building the tuples [GetNext] never reaches;
    - a hashed [visited] set guarantees no [(v, n, s)] triple is processed
      twice (tuples re-surfacing at higher distance are skipped); it is
      keyed by [(v, n)] with a bit per state;
    - [Succ] groups the automaton's out-transitions by label: consecutive
      identical labels share one neighbour range and one counting scan of
      it, which looks each neighbour up in [visited] once;
    - seeds are pushed {e non-final} even when the initial state is final
      with weight 0; the final-state re-queue of [GetNext] (line 13)
      immediately surfaces the answer at the same distance while keeping the
      tuple expandable.  (The paper's line 17 pushes such seeds as final
      tuples only, which as written would prevent any further expansion —
      we keep the behaviour and fix the bookkeeping.) *)

type answer = {
  x : int;  (** instantiation of the conjunct's subject position (node oid) *)
  y : int;  (** instantiation of the object position *)
  dist : int;
  witness : Witness.t option;
      (** the answer's provenance — [Some] iff [options.provenance]; its hop
          costs sum to [dist].  Under case-2 reversal the witness runs in
          traversal order (from the object constant), so its
          [source]/[target] are [y]/[x]. *)
}

type t

val open_ :
  graph:Graphstore.Graph.t ->
  ontology:Ontology.t ->
  options:Options.t ->
  ?governor:Governor.t ->
  ?metrics:Obs.Metrics.t ->
  ?ceiling:int ->
  ?suppress:(int * int, int) Hashtbl.t ->
  ?seed_filter:(int -> bool) ->
  ?frontier:(int -> unit) ->
  Plan.t ->
  Plan.part ->
  t
(** Initialise the data structures that evaluate [part] (one of the plan's
    parts) under the plan's orientation, seeding regime and target.  The
    part's automaton is the plan's, shared read-only: opening compiles
    nothing, so ψ restarts and parallel shards reopen parts for the cost of
    their seeds alone.  A RELAX constant's ancestor seeds are resolved here
    ({!relax_ancestor_seeds}).

    [governor] is the query's budget (default: a fresh one implementing the
    options' limits): every [D_R] push ticks its tuple budget (a cursor
    ticks once per unvisited neighbour it holds), and the
    GetNext/seeding loops poll it — a shared governor makes the budget
    cumulative across conjuncts and distance-aware restarts.

    [metrics] is the stream's registry (default: a fresh private one); the
    conjunct records its [pop_distance] and per-operation cost histograms
    there.

    [ceiling] is the ψ bound of distance-aware retrieval: tuples with
    distance above it are pruned (and recorded, see {!pruned}).

    [suppress] is a set of already-emitted [(x, y) → dist] answers shared
    across distance-aware restarts: matching pairs are neither re-emitted nor
    re-counted. It is updated in place as answers are emitted.

    [seed_filter] restricts a [Variable] plan's seeds to oids it accepts
    (fixed seeds ignore it) — the seed partition of parallel evaluation
    ({!Par}): because the per-seed explorations of a conjunct are
    independent (the [visited] and answer keys both carry the seed), a
    filtered conjunct emits exactly the answers of the full conjunct whose
    [x] it accepts, in the same non-decreasing distance order.

    [frontier] is told {!Seeder.frontier} whenever [D_R] holds no
    distance-0 entry — before each seed batch is drawn, and when a refill
    ends: at that point every distance-0 answer whose seed lies below the
    frontier has been returned.  With a [seed_filter] the seeder walks
    oids in ascending order, so {!Par} turns these calls into a watermark
    below which a shard's exact answers are final. *)

val relax_ancestor_seeds :
  graph:Graphstore.Graph.t -> ontology:Ontology.t -> beta:int -> int -> (int * int) list
(** [GetAncestors] (Open, line 8): the seeds of a RELAX constant [oid] —
    [(oid, 0)] if its label is no class, else the nodes of the class and
    every super-class, most specific first, at [depth × beta].
    @raise Failpoints.Injected when the [Ontology_lookup] failpoint fires. *)

val get_next : t -> answer option
(** The next answer in non-decreasing distance order, or [None] when the
    conjunct is exhausted {e or its governor has tripped} (budget, deadline
    or cancellation) — read [Governor.termination] to tell the cases apart;
    the answers already returned are a valid ranked prefix either way.
    @raise Failpoints.Injected when an armed failpoint fires mid-pull
    (converted to a [Fault] termination by [Engine.next]). *)

val close : t -> unit
(** Release the evaluation structures' memory-budget charges (D_R tuples
    and cursors still queued, visited/answers tables, provenance arena) — called when a
    levelled part is discarded at the end of a psi level.  The [suppress]
    table is owned by the caller and keeps its own charges.  Idempotent
    enough for its use: the arena is dropped on first call, the table
    charges are released against a clamped-at-zero accountant. *)

val stats : t -> Exec_stats.t

val pruned : t -> bool
(** Whether the ψ ceiling suppressed at least one tuple; if false after
    exhaustion, the evaluation was complete and no restart can find more. *)
