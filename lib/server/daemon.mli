(** The always-on query server: a crash-only daemon serving the
    {!Protocol} over a Unix-domain socket (or stdio, for tests and
    pipelines), one line-delimited JSON request in, exactly one response
    line out.

    {b Crash-only request isolation.}  Every request — transport framing,
    JSON decode, query parse, admission, evaluation — funnels through the
    single seam {!handle_request}, whose catch-all turns any unexpected
    exception into a typed code-1 response plus an audit record; the daemon
    answers and keeps serving.  A fault injected at a server failpoint
    ([accept]/[read]/[write], see {!Core.Failpoints}) aborts at most one
    connection, never the process.

    {b Overload shedding.}  Concurrency is rationed by {!Admit}: a global
    in-flight cap plus a per-tenant cap, both shed-not-queue with a
    structured [retry_after_ms] — one flooding tenant cannot starve the
    others, and the daemon's memory stays bounded under any offered load.
    Per-request budgets can only {e tighten} the server's configured
    limits ([options]).  A stuck
    query is cut by the reaper ({!reap_stuck}, driven by the accept loop)
    through [Core.Governor.cancel], so whatever it already emitted remains
    an exact ranked prefix.

    {b Graceful drain.}  {!request_drain} (the SIGTERM/SIGINT path) stops
    admissions (subsequent requests shed with [reason "draining"]), cancels
    in-flight governors, waits up to [drain_grace_ms], emits one final
    [termination "drain"] audit record and closes the audit sink.  Every
    request is audited exactly once: stream-bearing queries through the
    [Core.Engine.close] seam (stamped with their tenant), sheds, protocol
    errors, crashes and sleeps through server-built records with
    [query_class "server"]; [ping] is the one deliberate exception (a
    liveness probe, not work). *)

type config = {
  max_line_bytes : int;
      (** transport frame cap: a longer request line is rejected with
          [Request_too_large] {e without materialising it}
          (the connection's {!Ntriples.Nt.scanner}); default 1 MiB *)
  max_inflight : int;  (** global concurrent-evaluation cap (default 8) *)
  tenant_inflight : int;  (** per-tenant share of the above (default 2) *)
  retry_after_ms : int;  (** backpressure hint on shed (default 50) *)
  hard_timeout_ms : int option;
      (** the reaper's bound: no admitted request may run longer than this,
          whatever budgets it asked for (also clamps every query's
          deadline); [None] disables the reaper *)
  drain_grace_ms : int;  (** how long {!drain} waits for cancelled requests *)
  max_limit : int;  (** ceiling on any request's answer [limit] *)
  default_limit : int;  (** answer limit when the request names none *)
  options : Core.Options.t;  (** base evaluation options (budgets = ceilings) *)
  debug_ops : bool;
      (** accept the [sleep] drill op (occupies an admission slot in
          cancellable 10 ms naps — how CI provokes deterministic sheds and
          drain cuts); off by default: a production daemon refuses it *)
}

val default_config : config

type t

val create : graph:Graphstore.Graph.t -> ontology:Ontology.t -> config -> t
(** Builds the graph's index up front ({!Graphstore.Graph.freeze}), so no
    request thread does.  Ignores [SIGPIPE] process-wide: a response written to a vanished
    client must surface as [EPIPE] (one aborted connection), never as a
    process-killing signal. *)

val handle_request : t -> string -> string option
(** THE isolation seam: one raw request line in, the response line out
    ([None] for blank lines — keep-alive noise is not an error).  Total:
    parse errors, admission sheds, evaluation trips and unexpected
    exceptions all come back as protocol responses, never exceptions.
    Audits per the contract above.  Thread-safe. *)

val handle_oversized : t -> string
(** The transport's answer to a frame over [max_line_bytes]: audited
    code-2 [Request_too_large] response.  The connection stays usable —
    the bounded reader already discarded the rest of the line. *)

val serve_connection : t -> Unix.file_descr -> unit
(** Serve one connection to exhaustion: read frames (bounded), answer
    each, close the descriptor.  Crash-only: read/write faults (injected
    or real — torn frames, mid-stream disconnects, [EPIPE]) terminate
    {e this connection} silently; the request being evaluated still audits
    through its engine seam.  Never raises. *)

val write_line : Unix.file_descr -> string -> unit
(** Write the string and a newline in full (looping over short writes) —
    how the server sends a response frame, and the [call] client a
    request.
    @raise Unix.Unix_error as [Unix.write] does. *)

val serve_stdio : t -> unit
(** One connection over stdin/stdout, then {!drain} — the [--stdio] mode
    (tests, shell pipelines). *)

val run_unix : t -> socket:string -> unit
(** Bind the Unix-domain socket (unlinking any stale file), accept in a
    [select] loop (1 s tick: reap overdue requests, honour
    {!request_drain}/{!request_audit_reopen}), one thread per connection.
    Returns after a drain request completes {!drain}. *)

val request_drain : t -> unit
(** Async-signal-safe drain trigger (the SIGTERM/SIGINT handler): sets a
    flag and wakes the accept loop through a self-pipe.  Idempotent. *)

val request_audit_reopen : t -> unit
(** Async-signal-safe [Obs.Audit.reopen] trigger (the SIGHUP handler —
    log rotation without a restart). *)

val drain : t -> unit
(** The drain sequence described above.  Idempotent; called by {!run_unix}
    and {!serve_stdio} on their way out, and directly by tests. *)

val reap_stuck : t -> int
(** Cancel (reason ["stuck"]) every in-flight request older than
    [hard_timeout_ms]; returns how many were cut.  0 when disabled. *)

val counts : t -> int * int * int
(** [(served, shed, errors)] since creation — the drain record's stats. *)

val inflight : t -> int
