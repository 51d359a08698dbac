(** Incremental production of a conjunct's initial nodes (§3.3).

    For a conjunct [(?X, R, ?Y)] the traversal may need to start from a large
    set of nodes.  The paper implements the seeding functions as coroutines
    delivering batches of 100 nodes; nodes never needed to answer the query
    are then never added to [D_R] (reported to halve some execution times).

    The three seeding regimes of procedure [Open], lines 14–23:
    - initial state final with weight 0 — every node of [G] matches [R] with
      the empty path, so all nodes are seeded ([All_nodes]);
    - initial state final with positive weight — nodes carrying an edge
      compatible with some initial transition first, then the remaining nodes
      of [G] ([GetAllNodesByLabel]);
    - initial state non-final — only nodes carrying a compatible edge
      ([GetAllStartNodesByLabel]).

    Seeds are [(node, distance)] pairs: the distance is 0 except for the
    RELAX class-ancestor seeds of line 8, which carry
    [depth × beta].  A {!Graphstore.Oid_set} keeps delivered seeds distinct
    (the paper's Sparksee set operations), so a node reachable through
    several seed stages is delivered once, at its first (cheapest) stage. *)

type t

val of_list : (int * int) list -> t
(** Fixed seeds — conjuncts whose subject is a constant (cases 1–2 of
    [Open]).  Delivered as a single batch, in the given order. *)

val of_initial_state :
  ?governor:Governor.t ->
  ?ascending:bool ->
  graph:Graphstore.Graph.t ->
  nfa:Automaton.Nfa.t ->
  batch_size:int ->
  unit ->
  t
(** Seeding for [(?X, R, ?Y)] conjuncts, per the regimes above.  The
    candidate scan polls [governor] (default: unlimited) so a deadline or
    cancellation cuts an up-front ([batch_size = max_int]) sweep of a large
    graph short instead of pinning the process.

    By default the seeds come in the paper's order: the carriers of each
    initial transition's label, label by label, then (initial state final
    with a positive weight) every node.  [~ascending:true] delivers the
    same set in ascending oid order instead, lazily: a node is kept when
    the initial state is final or the node carries a label of an initial
    transition.  The ascending order is what makes {!frontier}
    meaningful. *)

val next_batch : t -> (int * int) list
(** The next batch of fresh seeds; [[]] once exhausted.  Batches respect
    [batch_size] (the last may be shorter, including when the governor
    trips mid-scan).
    @raise Failpoints.Injected when the [Seed_batch] failpoint fires. *)

val frontier : t -> int
(** The next candidate an ascending seeder has not drawn yet, or [max_int]
    once exhausted: every seed below it has been delivered.  [0] for the
    other seeders until they are exhausted (they promise no order). *)

val exhausted : t -> bool
(** True once no further seeds will be produced ([next_batch] would return
    [[]]). *)
