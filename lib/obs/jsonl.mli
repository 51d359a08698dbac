(** The one JSONL codec of the observability layer: [Result]-returning
    field decoders, a line writer and a line reader, shared by the audit
    log ({!Audit}), the flight-recorder dump ({!Flight}) and the query
    server's request parser.

    A JSONL file is one JSON value per line.  Writers emit each value as
    one complete line, so a crash truncates at most the line in flight;
    readers come in two modes:

    - {e tolerant} (postmortems, [omega_report]): a line that does not
      parse or decode is skipped and counted, never fatal;
    - {e strict} (schema gates, [bench/validate]): the first bad line
      fails the read, with its 1-based line number. *)

(** {1 Field decoders}

    Each decoder reads field [k] of a JSON object; errors name the field
    (["missing field \"k\""], ["field \"k\": expected int"]). *)

val field : string -> Json.t -> (Json.t, string) result
val int_field : string -> Json.t -> (int, string) result
val str_field : string -> Json.t -> (string, string) result
val bool_field : string -> Json.t -> (bool, string) result
val list_field : string -> Json.t -> (Json.t list, string) result

val nullable :
  (string -> Json.t -> ('a, string) result) -> string -> Json.t -> ('a option, string) result
(** [nullable d k j]: the field must be present; [null] reads as [None],
    anything else through [d]. *)

val optional :
  (string -> Json.t -> ('a, string) result) -> string -> Json.t -> ('a option, string) result
(** [optional d k j]: an absent or [null] field reads as [None]. *)

val map_list : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Decode every element, stopping at the first error. *)

(** {1 Lines} *)

val write_line : out_channel -> Json.t -> unit
(** One value as one line.  The caller decides when to flush: the audit
    sink flushes after every record, the flight dump once at the end. *)

val read :
  ?strict:bool ->
  (Json.t -> ('a, string) result) ->
  string ->
  ('a list * int, string) result
(** [read decode path] decodes every non-blank line of [path] in file
    order: [Ok (values, skipped)].  Tolerant by default ([skipped] counts
    the lines that did not parse or decode); with [~strict:true] the first
    such line is an [Error "PATH: line N: ..."] and [skipped] is always 0.
    [Error] also when the file cannot be opened.  [decode] sees the lines
    in order, so it may carry state (the flight dump's sequence check). *)
