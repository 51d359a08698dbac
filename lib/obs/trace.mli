(** The Chrome [trace_event] export of the flight recorder's timeline
    (loadable in [chrome://tracing] and Perfetto).

    The events themselves are {!Flight} spans, instants and governor trips,
    recorded into the per-domain rings whenever the recorder is on; this
    module only encodes them.  Every event carries pid 1 and
    [tid = domain + 1] (the initial domain is tid 1, shard workers of
    [Core.Par] appear as their own timeline rows).  Timestamps come from
    {!Clock.now_ns} and are rebased to the earliest exported event. *)

val to_json : ?extra:(string * Json.t) list -> unit -> Json.t
(** The recorder's timeline as
    [{"traceEvents": [...], "displayTimeUnit": "ms", "dropped": n}] with
    microsecond [ts]/[dur] fields.  [dropped] counts the events the rings
    overwrote (see {!Flight.stats}) — non-zero means the trace is a
    truncated suffix.  [extra] fields are appended to the top-level object
    (the CLI embeds the query profile there). *)

val export : ?extra:(string * Json.t) list -> string -> int
(** Write {!to_json} to a file; returns the number of trace events. *)
