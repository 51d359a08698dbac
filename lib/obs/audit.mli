(** The query audit log: one schema-versioned JSON record per query,
    appended to a JSONL file.

    This is the durable half of the query observatory (DESIGN.md "Query
    observatory"): where {!Metrics} and {!Flight} describe one process's
    current query, the audit log accumulates per-query records across
    processes and runs — canonicalised query hash, query class, plan
    summary, termination taxonomy, admission estimate vs actual work, the
    full execution counters, GC deltas, latency, and (in records written
    before queries ran on one domain) the per-shard breakdown of parallel
    runs — the substrate [bin/omega_report]
    aggregates into per-class latency percentiles and regression views.

    {b Crash safety.}  Every record is written as one complete line
    followed by a flush, into a file opened in append mode: a crash can
    lose or truncate at most the record being written, never corrupt
    earlier ones.  {!load} tolerates a truncated or malformed trailing
    line (it is counted, not fatal), so a log that survived a crash is
    still fully readable.

    {b Zero overhead when disabled.}  The process-global sink is consulted
    exactly once per query, at stream close, behind one flag check; nothing
    on the evaluation hot path knows the audit log exists. *)

val schema_version : int
(** The record schema version, stamped as field ["v"]; currently 3 (v2
    added the [flight] cross-link, v3 the serving [tenant]).  {!of_json}
    also accepts v1/v2 records, reading the absent fields as [None]. *)

val env_var : string
(** ["OMEGA_AUDIT"] — binaries treat it as a default for [--audit]. *)

type shard = {
  s_index : int;  (** shard index within its pool, 0-based *)
  s_busy_ns : int;  (** wall time the shard's worker ran (0 without a clock) *)
  s_answers : int;  (** answers the shard delivered to the merge *)
}

type flight_info = {
  f_path : string;  (** where the flight dump landed *)
  f_events : int;  (** events recorded over the query (recorder total) *)
  f_dropped : int;  (** events lost to ring wraparound *)
}

type record = {
  ts_ns : int;  (** {!Clock.now_ns} at emission; 0 without an installed clock *)
  query_hash : string;  (** {!hash} of the canonicalised query text *)
  query : string;  (** the canonicalised (re-pretty-printed) query text *)
  query_class : string;
      (** ["exact"] | ["approx"] | ["relax"] | ["mixed"], with
          ["+decomposed"] / ["+case2"] modifiers — the SLO accounting key *)
  plan : string;  (** one-line physical plan summary *)
  termination : string;  (** ["completed"] | ["exhausted"] | ["rejected"] *)
  reason : string option;
      (** governor reason / admission kind when not completed *)
  answers : int;
  wall_ns : int;  (** whole-query wall time (0 without a clock) *)
  cpu_ns : int;  (** whole-process CPU time consumed by the query *)
  est_states : int;  (** admission estimate: total automaton states; 0 unvetted *)
  est_product : int;  (** admission estimate: product frontier bound; 0 unvetted *)
  actual_tuples : int;  (** tuples actually queued ([pushes]) — the estimate's foil *)
  domains : int;  (** configured domain count *)
  shards : shard list;
      (** per-shard breakdown of an older parallel run; the engine writes
          [[]], since every query runs on one domain *)
  merge_wait_ns : int;  (** consumer time parked waiting for shard progress; 0 now *)
  imbalance_pct : int;
      (** 100 × max shard busy / mean shard busy; 100 = perfectly balanced,
          0 when unmeasured (every record the engine writes now) *)
  flight : flight_info option;
      (** cross-link to the flight-recorder dump covering this query, when
          both sinks were active; [None] otherwise (and for v1 records) *)
  tenant : string option;
      (** the tenant the query was served for ([omega_serve]); [None] for
          standalone CLI runs (and for v1/v2 records).  Server-level
          records — shed requests, protocol errors, the drain marker —
          carry it too, with [termination] ["shed"] / ["error"] /
          ["drain"]: the key of [omega_report]'s per-tenant rollup. *)
  stats : (string * int) list;  (** the full [Exec_stats.to_assoc] counters *)
  gc : (string * int) list;
      (** [Gc.quick_stat] deltas over the query: [minor_words],
          [major_words], [minor_collections], [major_collections] *)
}

val hash : string -> string
(** 64-bit FNV-1a of a string, as 16 lowercase hex digits — the canonical
    query hash (deterministic across processes and runs). *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result
(** Inverse of {!to_json}, validating field presence, types and the schema
    version — the schema validator ([validate --audit], the round-trip
    tests) is this function. *)

val validate : Json.t -> (unit, string) result
(** {!of_json} with the record discarded. *)

(** {2 Sinks} *)

type sink

val open_sink : string -> sink
(** Open (append, create at 0644) an audit log for writing.
    @raise Sys_error if the file cannot be opened. *)

val write : sink -> record -> unit
(** Append one record as a single JSON line and flush. *)

val close_sink : sink -> unit

(** {2 The process-global sink}

    Installed once at startup (CLI [--audit] / [OMEGA_AUDIT]); the engine
    emits through {!emit} at stream close. *)

val enable : string -> unit
(** Point the global sink at a path (closing any previous one).
    @raise Sys_error if the file cannot be opened. *)

val enabled : unit -> bool

val disable : unit -> unit
(** Close and remove the global sink. *)

val reopen : unit -> unit
(** Close and reopen the global sink at its current path (append, creating
    the file if a rotation renamed it away) — the SIGHUP handler of
    [omega_serve], so the daemon supports log rotation without a restart.
    Serialised against concurrent {!emit}s; a no-op when disabled.  If the
    path can no longer be opened the sink is left cleanly disabled. *)

val emit : record -> unit
(** Append to the global sink; a no-op when disabled.  Serialised by an
    internal mutex (safe to call from any domain). *)

(** {2 Reading} *)

val load : ?strict:bool -> string -> (record list * int, string) result
(** Parse a JSONL audit log ({!Jsonl.read}): [(records, skipped)] where
    [skipped] counts malformed or truncated lines (a crash-truncated tail
    is data loss, not corruption).  With [~strict:true] (the CI schema
    gate) the first such line is an [Error] naming its line number.
    [Error] also if the file itself cannot be read. *)
