(** Incremental ranked join of conjunct answer streams.

    Multi-conjunct CRP queries are answered by joining the per-conjunct
    streams on their shared variables and returning combined bindings in
    non-decreasing {e total} distance (the sum of the conjuncts' distances) —
    the "ranked join" of the system layer (§3).

    The algorithm is a hash-rank join in the HRJN style (Ilyas et al.): pull
    one answer at a time from the stream with the smallest last-seen
    distance, join it against everything already pulled from the other
    streams, buffer the combinations, and release a buffered combination
    once its total is at most the threshold
    [min_i (last_i + Σ_{j≠i} top_j)] — a lower bound on the total of any
    combination not yet formed.

    Each input indexes what it has pulled by [(variable, value)], so a
    fresh answer is joined only against the answers of another input that
    bind a shared variable to the same value (all of them when the inputs
    share none).  A bucket keeps the pull order, so the combinations, and
    the stream, are those of comparing against every pulled answer. *)

type binding = (string * int) list
(** Variable assignments, node oids as values, sorted by variable name. *)

val binding_of : (string * int) list -> binding
(** Canonicalise (sort by variable, check duplicates).
    @raise Invalid_argument if a variable is bound twice inconsistently. *)

val compatible : binding -> binding -> bool
(** Do the bindings agree on every shared variable? *)

val merge : binding -> binding -> binding
(** Union of two {!compatible} bindings. *)

type t

val create :
  ?governor:Governor.t ->
  ?metrics:Obs.Metrics.t ->
  (unit -> (binding * int * Witness.t list) option) list ->
  t
(** [create streams] — each stream must yield answers in non-decreasing
    distance.  The pull loop polls [governor] (default: unlimited) and
    every buffered combination ticks its tuple budget, so the join's own
    memory draws on the same per-query ceiling as the conjuncts' [D_R].
    [metrics] (default: a fresh private registry) receives the
    [join_combos] histogram — combinations produced per input pull.
    @raise Invalid_argument on the empty list. *)

val next : t -> (binding * int * Witness.t list) option
(** Next joined binding with its total distance and the witnesses of the
    participating conjunct answers (empty unless provenance is on), in
    non-decreasing total order.  Identical bindings arising from different
    answer combinations are emitted once, at their smallest total.  Returns
    [None] when the
    inputs are exhausted {e or the governor tripped} (the emitted prefix
    stays valid).
    @raise Failpoints.Injected when the [Join_pull] failpoint fires. *)
