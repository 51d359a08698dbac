(** Evaluation options: edit/relaxation costs and the physical optimisations
    of §3.3–§4.3. *)

type costs = {
  ins : int;  (** APPROX insertion cost (paper: 1) *)
  del : int;  (** APPROX deletion cost (paper: 1) *)
  sub : int;  (** APPROX substitution cost (paper: 1) *)
  beta : int;  (** RELAX rule (i) cost per step (paper: 1) *)
  gamma : int;  (** RELAX rule (ii) cost (paper: 1) *)
}

type t = {
  costs : costs;
  batch_size : int;
      (** how many initial nodes the seeding coroutine delivers per batch for
          [(?X, R, ?Y)] conjuncts (paper default: 100).  [max_int] seeds
          every node up-front in one batch — the ablation of batched
          seeding, which the paper reports "reduced the execution time of
          some queries by half" (§3.3); EXPLAIN prints it as [up-front]. *)
  distance_aware : bool;
      (** §4.3 "retrieving answers by distance": evaluate with a cost ceiling
          ψ = 0, φ, 2φ, … restarting from scratch at each increment *)
  decompose : bool;
      (** §4.3 "replacing alternation by disjunction": split a top-level
          alternation into sub-automata, adaptively ordered *)
  max_tuples : int option;
      (** the governor's tuple ceiling: stop (reporting
          [Governor.Tuple_budget]) once this many tuples have been queued —
          a deterministic stand-in for the paper's 6 GB memory exhaustion
          ('?' entries of Fig. 10).  The count is {e cumulative} over the
          whole query: every [D_R] push of every conjunct, every join-buffer
          combination, and {e every distance-aware restart} draw from the
          same budget (a ψ-levelled evaluation does not get a fresh budget
          per level — re-expansion work across restarts is real memory/time
          and is billed as such; pinned by the "budget is cumulative across
          distance-aware restarts" regression test) *)
  timeout_ns : int option;
      (** the governor's wall-clock deadline, relative to query open.
          Requires a clock installed in [Obs.Clock.now_ns]; without one the
          deadline never fires (documented no-op).  Answers emitted before
          the deadline are a valid ranked prefix. *)
  max_answers : int option;
      (** the governor's answer cap: stop (reporting [Governor.Answer_limit])
          once this many answers have been emitted.  [Engine.run]'s [limit]
          argument lowers this further for the duration of the call. *)
  max_memory_bytes : int option;
      (** the governor's memory budget over the {!Mem} live-bytes estimate
          of the dominant structures (D_R buckets, visited sets, provenance
          arena, seed sets, join buffers, trace ring).  Under pressure the
          engine degrades in stages — drop provenance arenas at 50%, stop
          escalating the psi window at 75% — and past the budget reports
          [Governor.Memory_budget]; the answers emitted remain an exact
          ranked prefix of the full answer set. *)
  max_states : int option;
      (** admission control: reject (before touching the graph, with
          [Engine.Rejected]) any query one of whose conjuncts compiles to
          an automaton with more than this many states after APPROX/RELAX
          expansion.  [None] admits everything. *)
  max_product_est : int option;
      (** admission control: reject when the estimated product frontier
          summed over conjuncts — automaton states x estimated seed
          population |Q| x |V_seed| — exceeds this.  [None] admits
          everything. *)
  final_priority : bool;
      (** ablation switch (default true): pop final tuples before non-final
          ones at equal distance.  The paper reports that this refinement
          "improved the performance of most of our queries, and also ensured
          that some queries, which had previously failed by running out of
          memory, completed" (§3.3) — disabling it lets the benchmark
          harness quantify that claim. *)
  provenance : bool;
      (** record parent pointers on enqueued tuples (default false) so each
          answer carries a {!Witness.t} — the data path plus the
          edit/relaxation script behind its distance.  Off, the evaluator
          pays exactly one branch per Succ expansion and allocates
          nothing. *)
  domains : int;
      (** the emission order of plain [(?X, R, ?Y)] conjuncts (default 1).
          At 1 such a conjunct streams in the paper's order: non-decreasing
          distance, ties in queue order.  At [N >= 2] it streams the same
          answers in ascending [(distance, x, y)] order, the same stream at
          every [N >= 2], computed on the calling domain: each distance
          bucket is held and released sorted, and exact answers are
          released as soon as they lie below the seed frontier.
          Constant-seeded, distance-aware and decomposed conjuncts ignore
          it.  See DESIGN.md "The canonical order". *)
}

val governor : ?limit:int -> t -> Governor.t
(** A fresh governor implementing these options' budgets ([max_tuples],
    [timeout_ns], [max_answers]); [limit] caps answers further (the
    smaller of the two wins). *)

val default_costs : costs
(** All five costs are 1, as in the performance study (§4.1). *)

val default : t
(** [default_costs], batch size 100, no optimisations, no budget, [domains = 1]. *)

val domains_env_var : string
(** ["OMEGA_DOMAINS"]. *)

val domains_from_env : unit -> int
(** The domain count requested through [OMEGA_DOMAINS]: an integer in
    [1 .. 64]; absent, empty or out-of-range values read as 1 (the knob must
    never turn a query into a usage failure).  Callers building options from
    the environment use this as the [domains] default. *)

val phi : t -> Query.mode -> int
(** [phi t mode] is the smallest positive cost of the operations enabled by
    [mode] — the ψ increment of distance-aware retrieval.  1 for [Exact]
    (arbitrary; exact answers all have distance 0). *)

val compile_mode : t -> Query.mode -> Automaton.Compile.mode
(** The automaton transformation corresponding to a conjunct's operator under
    these costs. *)
