(** The flight recorder: the one event recorder of the engine.  Each
    domain records into its own fixed-capacity wraparound ring (lock-free
    for the single writer); events carry a global sequence number and a
    {!Clock} timestamp, so merging the rings by sequence reconstructs the
    full interleaving.

    Two families of events share the rings:
    - {e flow events}: the scheduling log of the sealed-bucket parallel
      merge ([Core.Par]), checked by an online invariant monitor and by
      the offline replay ({!Replay});
    - {e spans}: the timeline of one query (automaton build phases, seed
      batches, ψ windows, join pulls), plus governor trips — exported as a
      Chrome [trace_event] document by {!Trace}.

    When the recorder is off, every recording call is a single load; call
    sites additionally guard payload construction with {!enabled}.  The
    recorder has three settings: on/off, the per-answer [detail] level and
    the per-domain ring capacity. *)

val schema_version : int
val env_var : string
(** [OMEGA_FLIGHT] — dump target path, mirroring [Audit.env_var]. *)

(** {1 Events} *)

type input = { i_shard : int; i_last : int; i_state : int }
(** One shard's contribution to a seal bound: its frontier distance and
    state (0 live, 1 done-complete, 2 done-incomplete). *)

type arg = Str of string | Num of int
(** Span arguments (the [args] object of the trace format). *)

type args = (string * arg) list

type phase =
  | Begin  (** span open — Chrome ["B"] *)
  | End  (** span close — ["E"] *)
  | Instant  (** point event — ["i"] *)
  | Complete of int  (** retro-recorded span with its duration in ns — ["X"] *)
  | Meta  (** viewer metadata ([thread_name]) — ["M"] *)

type kind =
  | Flow_open of { shards : int; slack : int; label : string }
  | Shard_start
  | Deliver of { dist : int }
  | Park of { qlen : int }
  | Unpark
  | Heartbeat of { qlen : int; last : int }
  | Shard_done of { complete : bool; answers : int }
  | Seal of { bound : int; batch : int; inputs : input list }
  | Emit of { dist : int; x : int; y : int }
  | Stall of { silent_ns : int }
  | Stop
  | Trip of { reason : string; tuples : int; answers : int }
      (** a governor trip, with the work done when it fired *)
  | Span of { ph : phase; name : string; cat : string; args : args }
      (** a timeline event; a [Complete] span's [ts_ns] is its start *)

type event = { seq : int; ts_ns : int; domain : int; flow : int; shard : int; kind : kind }
(** [flow] identifies one parallel merge instance ([-1] for process-level
    events such as governor trips and spans); [shard] is [-1] for
    consumer-side and process-level events. *)

val is_span : kind -> bool
(** {!Check} and {!Replay} ignore spans. *)

val phase_letter : phase -> string
(** The Chrome [trace_event] phase letter (["B"], ["E"], ["i"], ["X"], ["M"]). *)

val kind_tag : kind -> string
val all_tags : string list
val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

(** {1 Recorder lifecycle} *)

val enable : ?capacity:int -> ?detail:bool -> unit -> unit
(** Clears all rings and starts recording flow events and spans;
    [capacity] is per-domain (default 4096, clamped to at least 8).  [detail] (default [false])
    additionally records the per-answer events ([Deliver], [Emit]) that
    the always-on level skips to stay off the answer path's critical
    nanoseconds — seal bounds remain fully checkable without them because
    every [Seal] carries its per-shard inputs.  Tests and forensic runs
    enable it; the invariant rules that need per-answer events
    (shard-regression, late-delivery, emit order) only fire with it. *)

val disable : unit -> unit
(** Stops recording but keeps the rings, so a postmortem dump after
    [disable] still sees the run. *)

val enabled : unit -> bool

(** [detail ()] is true when the recorder is on at the detail level: call
    sites guard per-answer event construction with this, everything else
    with {!enabled}. *)
val detail : unit -> bool
val clear : unit -> unit
(** Discards all rings and resets counters. Only call between flows. *)

val new_flow : unit -> int
val record : ?flow:int -> ?shard:int -> kind -> unit

val approx_bytes : unit -> int
(** Approximate retained footprint of the rings (capacity × registered
    rings, at least one) — charged once against a query's memory budget
    at open when the recorder is on. *)

(** {1 Spans}

    Process-level timeline events, recorded whenever the recorder is on. *)

val with_span : ?cat:string -> ?args:args -> string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] with [Begin]/[End] spans; the end
    is recorded even if [f] raises, so spans always nest.  When the
    recorder is off this is exactly [f ()]. *)

val instant : ?cat:string -> ?args:args -> string -> unit
(** A point event (a ψ-level bump, an admission rejection). *)

val complete : ?cat:string -> ?args:args -> start_ns:int -> string -> unit
(** A retro-recorded span: [start_ns] was sampled from {!Clock.now_ns}
    before the work, the duration is measured at the call.  Used where a
    window is not lexically scoped (a ψ-restart part streaming across many
    [next] calls). *)

val set_thread_name : string -> unit
(** Label the calling domain's timeline row ([Core.Par] workers call it
    once at startup, so shard lanes read ["shard 0"]). *)

val stall_threshold_ns : int ref
(** A shard silent for longer than this (with a clock installed) gets a
    [Stall] event from the consumer-side watchdog. Default 250ms. *)

(** {1 Reading} *)

val events : unit -> event list
(** Snapshot of all rings merged by sequence number, oldest first. *)

val stats : unit -> int * int
(** [(recorded, dropped)] — total events ever recorded, and how many were
    overwritten by ring wraparound. *)

(** {1 Dump and load} *)

val set_dump_target : string option -> unit
val dump_target : unit -> string option

val dump : string -> int
(** Writes a meta line then one JSONL line per event; returns the number
    of events written. Raises [Sys_error] on an unwritable path. *)

type meta = { m_recorded : int; m_dropped : int }

val load : ?strict:bool -> string -> (meta option * event list * int, string) result
(** Read a dump back: [(meta, events, skipped_lines)].  Tolerant by default:
    malformed or truncated lines are skipped and counted (the postmortem
    of a crashed process).  With [~strict:true] (the schema gate for
    fixtures and CI dumps) the first bad line fails the load with its line
    number, and so does a missing or repeated meta header, a sequence
    number that does not increase, or a meta header whose
    [recorded - dropped] differs from the events the dump carries.  Reads
    schema v1 and v2. *)

(** {1 Codec} *)

val to_json : event -> Json.t
val of_json : Json.t -> (event, string) result

val args_json : args -> Json.t
(** Span arguments as a JSON object (shared with the {!Trace} export). *)

(** {1 Invariant checking} *)

module Check : sig
  type state

  val init : unit -> state

  val step : state -> event -> (string * string) option
  (** Feed one event in interleaving order; returns [Some (rule, detail)]
      on the first violated invariant. Rules: [shard-regression],
      [seal-regression], [seal-overrun], [late-delivery],
      [emit-unsealed], [emit-order]. *)
end

type violation = {
  v_seq : int;
  v_flow : int;
  v_rule : string;
  v_detail : string;
  v_window : event list;
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit
val window_around : seq:int -> event list -> event list

(** The online monitor: steps {!Check} on every recorded event. Enabled
    in tests; zero-cost when off (one extra load on the record path). *)
module Monitor : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool
  val reset : unit -> unit

  val first_violation : unit -> violation option

  val last_dump_path : unit -> string option
  (** Where the automatic dump of the first violation landed, if any. *)

  val assert_ok : unit -> unit
  (** Raises {!Violation} with the first recorded violation, if any. *)
end
