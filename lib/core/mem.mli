(** Approximate live-bytes accounting for the governor's memory budget.

    A deterministic model of the query's dominant allocations, charged and
    released at the allocation sites themselves (D_R buckets, visited
    tables, provenance arena, seed sets, join buffers, trace ring) — never
    sampled from the GC, so the same query under the same budget degrades
    at the same point on every run.  See DESIGN.md, "Resource safety". *)

type t

val create : unit -> t

val charge : t -> int -> unit
(** Add [bytes] to the live estimate, updating the peak. *)

val release : t -> int -> unit
(** Subtract [bytes] (clamped at 0 — a release can never go negative even
    if a structure is dropped twice). *)

val live : t -> int
(** The current live-bytes estimate. *)

val peak : t -> int
(** The high-water mark of {!live} since {!create}. *)

(** {2 The cost model}

    Approximate retained bytes of one entry of each dominant structure,
    including container overhead.  Stable constants, documented in
    DESIGN.md — roughly proportional to the real footprint, not exact. *)

val word : int

val tuple_bytes : int
(** One queued D_R tuple: its record, queue-entry box and bucket cons
    cell. *)

val cursor_bytes : int
(** One queued D_R cursor (one expansion's pending successors at one cost),
    less its segments; with them its charge is [cursor_bytes + segments *
    segment_bytes], whatever the ranges' lengths. *)

val segment_bytes : int
(** One segment of a cursor: a transition and a range of the CSR index
    (never a copy), or one lone successor. *)

val visited_entry_bytes : int
(** One visited triple (charged per triple, though the set stores a slot
    per (seed, node) pair) or answers hashtable binding. *)

val prov_entry_bytes : int
(** One provenance-arena entry (three parallel int array slots). *)

val seed_entry_bytes : int
(** One oid in a seeder's delivered set. *)

val join_seen_bytes : int
(** One tuple in a join input's [seen] list. *)

val join_index_bytes : int
(** One cell of a join input's [(var, value)] index. *)

val join_combo_bytes : int
(** One buffered join combination. *)

val answer_entry_bytes : int
(** One projected-answer dedup binding. *)

val of_mb : int -> int
(** Megabytes to bytes. *)
