(** The query server's wire protocol: line-delimited JSON, one request per
    line in, exactly one response line out.

    A request is a JSON object:

    {v
      {"id": any, "op": "query"|"ping"|"sleep", "tenant": "acme",
       "query": "(?X) <- APPROX (C, p, ?X)",
       "limit": 10, "timeout_ms": 500, "max_tuples": 100000,
       "max_states": 64, "ms": 100}
    v}

    Every field except ["query"] (required for [op = "query"]) is optional:
    [id] is echoed verbatim into the response (default [null]), [op]
    defaults to ["query"], [tenant] to ["anon"].  The budget fields can only
    {e tighten} the server's own per-request limits, never widen them.

    A response is a JSON object with at least [id], [status] and [code];
    [code] reuses the CLI exit-code taxonomy so one table covers both
    surfaces:

    - [ok] (0) — completed, or the requested answer limit was reached;
    - [error] (2) — protocol or query parse/validation error ([error] field);
    - [partial] (3/4/5) — deadline / tuple-or-memory budget / fault: the
      [answers] emitted are a valid ranked prefix ([reason] names the trip —
      a drain cut surfaces as [fault:drain]);
    - [rejected] (6) — turned away by admission control before evaluation;
    - [shed] (7) — overload: not evaluated, retry after [retry_after_ms];
    - [error] (1) — an unexpected internal exception (crash-only isolation:
      the daemon answers and keeps serving).

    This module is pure (no I/O): the server, the fuzzer and the chaos
    suite all go through the same codec. *)

type op = Query | Ping | Sleep

type request = {
  id : Obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  op : op;
  tenant : string;  (** ["anon"] when absent; 1..64 bytes *)
  query : string;  (** [""] unless [op = Query] *)
  limit : int option;  (** answer cap for this request (clamped by the server) *)
  timeout_ms : int option;
  max_tuples : int option;
  max_states : int option;
  sleep_ms : int;  (** [op = Sleep] only (a drill op; see [config.debug_ops]) *)
}

type error =
  | Request_too_large of int
      (** the frame overran the transport's line cap (the bound is enforced
          by the reader — {!Ntriples.Nt.scanner} — before the
          bytes are ever materialised) *)
  | Bad_json of string  (** the line is not a JSON object *)
  | Bad_request of string  (** well-formed JSON, ill-formed request *)
  | Bad_query of string  (** the query text failed parsing/validation *)

val error_string : error -> string

val error_tag : error -> string
(** Short audit tag: ["request-too-large"] | ["bad-json"] | ["bad-request"]
    | ["bad-query"]. *)

val parse_request : string -> (request, Obs.Json.t * error) result
(** Parse one frame.  Errors carry the request's [id] when one could be
    recovered ([Null] otherwise), so even a malformed request gets a
    correlatable response. *)

(** {2 Response builders} — each returns the response as a JSON tree;
    {!render} flattens it to the single wire line. *)

val render : Obs.Json.t -> string

val resp_error : id:Obs.Json.t -> error -> Obs.Json.t
(** [status "error"], code 2. *)

val resp_crash : id:Obs.Json.t -> string -> Obs.Json.t
(** [status "error"], code 1 — the catch-all seam's answer to an unexpected
    exception. *)

val resp_shed : id:Obs.Json.t -> tenant:string -> retry_after_ms:int -> draining:bool -> Obs.Json.t
(** [status "shed"], code 7, with the backpressure hint; [reason] is
    ["overload"], or ["draining"] when the server is shutting down. *)

val resp_pong : id:Obs.Json.t -> Obs.Json.t

val resp_slept : id:Obs.Json.t -> tenant:string -> slept_ms:int -> cut:string option -> Obs.Json.t
(** The sleep drill's response: [ok]/0 when it ran to term, [partial]/5
    when cut ([cut] names the governor fault). *)

val resp_outcome :
  id:Obs.Json.t -> tenant:string -> query_class:string -> Core.Engine.outcome -> Obs.Json.t
(** A query response from an engine outcome: termination mapped to
    status/code per the table above, answers as
    [{"bindings": {...}, "distance": d}] in rank order. *)

val response_code : Obs.Json.t -> int option
(** The [code] field of a parsed response — the client's exit code. *)
