(* The approximate live-bytes accountant behind [Governor]'s memory budget.

   Omega never asks the GC how big it is: walking the heap is expensive and
   non-deterministic, and `Gc.stat` words include garbage awaiting
   collection.  Instead the evaluation layers charge the accountant at the
   allocation sites of the structures that dominate a query's footprint —
   D_R distance buckets, visited tables, the provenance arena, seed
   delivery sets, join buffers and the trace ring — and release on the
   matching pops/drops.  The model is deliberately coarse (a handful of
   words per entry, below) but it is *monotone in the real footprint* and
   fully deterministic, which is what a budget needs: the same query at the
   same budget degrades at the same point on every run, so the chaos suite
   can pin exact-ranked-prefix behaviour under memory pressure. *)

type t = { mutable live : int; mutable peak : int }

let create () = { live = 0; peak = 0 }

let charge t bytes =
  t.live <- t.live + bytes;
  if t.live > t.peak then t.peak <- t.live

let release t bytes =
  t.live <- t.live - bytes;
  if t.live < 0 then t.live <- 0

let live t = t.live
let peak t = t.peak

(* --- the cost model --------------------------------------------------

   Sizes are in bytes on a 64-bit runtime (word = 8).  Each constant is
   the approximate retained size of ONE entry of the named structure,
   including container overhead (list cons cells, hashtable buckets, boxed
   keys) — not just the payload.  The numbers are documented in DESIGN.md
   ("Resource safety"); they only need to be stable and roughly
   proportional, not exact. *)

let word = 8

(* A queued D_R tuple: its (seed, node, state, final, prov) record, the
   queue-entry box around it and its bucket cons cell. *)
let tuple_bytes = 11 * word

(* A queued D_R cursor, its whole charge: its (parent, transition, index
   array, lo, hi) entry block + its bucket cons cell; its range is a slice
   of the graph's index, never a copy. *)
let cursor_bytes = 9 * word

(* One visited-set key (three int slots at load 1/4 to 1/2) or one answers
   hashtable binding (bucket cons + boxed key pair). *)
let visited_entry_bytes = 8 * word

(* One provenance arena entry: a slot in each of the three parallel int
   arrays (parent/node/edge). *)
let prov_entry_bytes = 3 * word

(* One oid recorded in a seeder's delivered set. *)
let seed_entry_bytes = 4 * word

(* One tuple remembered in a join input's [seen] list. *)
let join_seen_bytes = 8 * word

(* One cell of a join input's (var, value) index: a bucket cons cell, and
   the bucket's share of its hashtable binding. *)
let join_index_bytes = 5 * word

(* One buffered join combination (bindings array + queue cell). *)
let join_combo_bytes = 12 * word

(* One projected-answer dedup binding in the engine. *)
let answer_entry_bytes = 8 * word

let of_mb mb = mb * 1024 * 1024
