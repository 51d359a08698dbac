(** A set of non-negative integer triples — the [visited] set of [GetNext]
    over [(v, n, s)] (seed, node, automaton state).

    Open addressing with linear probing over one flat int array, three
    slots per key, grown by doubling at load 1/2.  A probe hashes the three
    ints in place, so {!mem} and {!add} allocate nothing (a [Hashtbl] keyed
    by an [(int * int * int)] tuple allocates the key on every probe). *)

type t

val create : int -> t
(** [create n]: an empty set sized for about [n] keys before it first
    grows. *)

val mem : t -> int -> int -> int -> bool

val add : t -> int -> int -> int -> bool
(** [add t a b c] inserts [(a, b, c)] and reports whether it was absent.
    @raise Invalid_argument if [a < 0]. *)

val length : t -> int
