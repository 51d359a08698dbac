(** Offline replay checker for flight-recorder dumps: reconstructs the
    interleaving from a JSONL dump, re-validates the full {!Flight.Check}
    invariant set, and localises the first violating event.  Span events
    count in [events] and [seq_gaps] only: [domains], [flows], [kinds],
    [stalls] and the invariant checks cover the flow events. *)

type stall = { st_flow : int; st_shard : int; st_silent_ns : int }

type t = {
  path : string;
  meta : Flight.meta option;
  events : Flight.event list;
  skipped : int;
  domains : int list;
  flows : int list;
  kinds : (string * int) list;
  seq_gaps : int;
  stalls : stall list;
  violation : Flight.violation option;
}

val load : ?stall_ns:int -> string -> (t, string) result
(** Loads a dump tolerantly (truncated/corrupt lines are skipped and
    counted) and re-checks it. [stall_ns] overrides the offline stall
    threshold (default {!Flight.stall_threshold_ns}). *)

val of_events :
  ?stall_ns:int ->
  path:string ->
  meta:Flight.meta option ->
  skipped:int ->
  Flight.event list ->
  t

val ok : t -> bool
(** True iff the dump violates no invariant. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
