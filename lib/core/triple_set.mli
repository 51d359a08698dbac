(** A set of triples [(v, n, s)] of non-negative integers, [s] below a
    fixed bound — the [visited] set of [GetNext] over (seed, node,
    automaton state).

    The table is keyed by the pair [(v, n)].  A slot holds the pair and a
    bitset of the states [s] present with it, 63 to a word: one flat int
    array, [2 + ⌈states / 63⌉] cells a slot, open addressing with linear
    probing, grown by doubling at load 1/2.  One lookup of [(v, n)]
    ({!find}) answers membership for every state, so a scan that asks
    about several states of one node probes once.  Nothing here
    allocates, save the table's growth. *)

type t

val create : states:int -> int -> t
(** [create ~states n]: an empty set of triples whose third component is
    below [states], sized for about [n] pairs before it first grows.
    @raise Invalid_argument if [states < 1]. *)

val find : t -> int -> int -> int
(** [find t v n]: the slot of the pair [(v, n)], or [-1] when no triple
    [(v, n, _)] is in the set.  Valid until the next {!add}. *)

val slot_mem : t -> int -> int -> bool
(** [slot_mem t (find t v n) s] is [mem t v n s]: one bit test. *)

val mem : t -> int -> int -> int -> bool

val add : t -> int -> int -> int -> bool
(** [add t v n s] inserts [(v, n, s)] and reports whether it was absent.
    @raise Invalid_argument if [v < 0] or [s] is not below [states]. *)

val length : t -> int
(** The number of triples (not of pairs). *)
