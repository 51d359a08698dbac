(** The query governor: one per-query budget unifying the wall-clock
    deadline, the tuple ceiling (the paper's 6 GB stand-in), the answer cap
    and a cooperative cancellation token.

    Every evaluation layer — [Conjunct] (Succ/GetNext), [Seeder] (batch
    delivery), [Ranked_join] (pulls) and the restart loops of [Evaluator] —
    polls the same governor cheaply and unwinds by returning [None] when it
    has tripped; nothing raises across the public surface.  Because answers
    stream in non-decreasing distance, whatever was emitted before the trip
    is always a valid ranked prefix of the full answer set (the
    prefix-correctness argument of DESIGN.md).

    A governor trips at most once; the first cause wins and is reported
    through {!termination}. *)

type reason =
  | Tuple_budget  (** [max_tuples] pushes exceeded — the memory stand-in *)
  | Deadline  (** the wall-clock deadline passed *)
  | Answer_limit  (** the answer cap was reached (the prefix is complete) *)
  | Memory_budget
      (** the {!Mem} live-bytes estimate crossed [max_memory_bytes] (or an
          evaluator declined a psi escalation under stage-2 degradation);
          the answers emitted so far are an exact ranked prefix *)
  | Fault of string
      (** an injected failpoint fired ({!Failpoints}), or {!cancel} was
          called; the string names the cause *)

type termination =
  | Completed  (** the stream ran to natural exhaustion — the answer set is complete *)
  | Exhausted of { reason : reason; elapsed_ns : int; tuples : int; answers : int }
      (** the governor tripped; the answers emitted before the trip are a
          valid ranked prefix.  [elapsed_ns] is 0 unless a clock is
          installed in [Obs.Clock.now_ns]. *)

type t

val create :
  ?timeout_ns:int -> ?max_tuples:int -> ?max_answers:int -> ?max_memory_bytes:int -> unit -> t
(** A fresh governor; omitted limits are unlimited.  [timeout_ns] is
    relative to creation time (sampled from [Obs.Clock.now_ns]).  [max_memory_bytes]
    bounds the {!Mem} live-bytes estimate and arms the degradation
    ladder. *)

val unlimited : unit -> t

val poll : t -> bool
(** The cooperative check of the hot loops: [true] means keep going.  With
    no deadline this is two compares; the deadline clock read is amortised
    over 16 polls. *)

val tick_tuples : t -> int -> unit
(** Count [n] tuples against the budget (the members of a [D_R] cursor, a
    plain [D_R] push or a join-buffer combination); trips [Tuple_budget]
    once the count passes the ceiling.  The count is
    {e cumulative} across all conjuncts, join buffering and distance-aware
    restarts of the query (see [Options.max_tuples]). *)

val note_answer : t -> unit
(** Count one emitted answer; trips [Answer_limit] at the cap. *)

(** {2 Memory accounting and graceful degradation}

    Allocation sites charge the governor's {!Mem} accountant; releases
    mirror pops and drops.  Charging is always on (two integer adds);
    without [max_memory_bytes] the ladder is never evaluated.  Under a
    budget the ladder is monotone — crossing 50% of the budget turns on
    {!drop_provenance}, 75% additionally turns on {!shrink_psi}, and 100%
    trips [Memory_budget].  Stages never turn back off on release, so a
    query cannot flap between keeping and dropping a structure. *)

val charge_mem : t -> int -> unit
(** Charge [bytes] against the memory budget, evaluating the ladder. *)

val release_mem : t -> int -> unit
(** Release [bytes] (pops, drops); never re-arms a reached stage. *)

val mem_peak : t -> int
(** The high-water mark of the estimate. *)

val drop_provenance : t -> bool
(** Stage 1 reached: conjuncts should drop their provenance arenas and stop
    recording parents (answers keep their bindings and distances; they lose
    their witnesses). *)

val shrink_psi : t -> bool
(** Stage 2 reached: a distance-aware evaluator should decline its next psi
    escalation (see {!note_shrink_psi}). *)

val note_dropped_provenance : t -> unit
(** Record that a conjunct actually dropped its arena (the [degrade_drop_provenance]
    counter). *)

val note_shrink_psi : t -> unit
(** Record a declined psi escalation and trip [Memory_budget]: everything
    at or below the current ceiling has already been emitted, so the
    answers so far are an exact ranked prefix and no further progress is
    possible. *)

val degrade_counts : t -> int * int
(** [(arena drops, declined psi escalations)] so far. *)

val cancel : ?reason:string -> t -> unit
(** The cancellation token: trips [Fault reason] (default ["cancelled"]).
    Safe to call from anywhere holding the governor; the evaluation unwinds
    at its next poll. *)

val fault : t -> string -> unit
(** Trip [Fault name] — how injected failpoints terminate a query. *)

val tripped : t -> reason option

val termination : t -> termination
(** The structured outcome so far: [Completed] while nothing has tripped. *)

val tuples : t -> int

val answers : t -> int

val elapsed_ns : t -> int
(** Nanoseconds since creation per [Obs.Clock.now_ns] (0 without a clock). *)

val reason_string : reason -> string
(** ["tuple-budget"], ["deadline"], ["answer-limit"], ["fault:<name>"]. *)
