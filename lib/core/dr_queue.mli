(** The dictionary [D_R] of §3.3: tuples pending exploration, keyed by an
    (integer distance, final/non-final) pair.

    Physically a bucket queue: a growable array indexed by distance, each
    bucket holding two LIFO stacks (final and non-final tuples).  Push and
    pop are O(1) amortised — the linked-list-with-head-insertion layout the
    paper implements with C5 collections.

    Pop order implements the paper's refinement: smallest distance first,
    and {e final} tuples before non-final ones at equal distance, so answers
    are surfaced as early as possible (§3.3 — this also bounds memory for
    queries that would otherwise exhaust it). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> dist:int -> final:bool -> 'a -> unit
(** @raise Invalid_argument if [dist < 0]. *)

val pop : 'a t -> ('a * int * bool) option
(** Remove and return [(tuple, dist, final)] — minimum distance, final
    first — or [None] when empty. *)

val peek : 'a t -> ('a * int * bool) option
(** What {!pop} would return, left in place.  An entry that stands for
    several tuples (a [GetNext] cursor) yields them one at a time from the
    top of its stack this way, and is popped when it yields its last. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of tuples currently queued. *)

val has_at : 'a t -> int -> bool
(** [has_at q d]: does any tuple (final or not) sit at distance [d]?  Used by
    the seeding coroutine's "no distance-0 tuples left" check. *)

val min_distance : 'a t -> int option

val clear : 'a t -> unit
