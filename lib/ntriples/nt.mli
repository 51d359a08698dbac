(** On-disk persistence for data graphs and ontologies, in an N-Triples-like
    line format, and the bounded line scanner that reads it.

    The paper's data model is RDF minus blank nodes, so a triple-per-line
    text format round-trips it exactly:

    {v
      <node label> <edge label> <node label> .
      <sub class>  <sc>         <super class> .
      <sub prop>   <sp>         <super prop> .
      <property>   <dom>        <class> .
      <property>   <range>      <class> .
    v}

    Each term is enclosed in angle brackets; [>] and [\\] inside labels are
    backslash-escaped.  Ontology triples use the reserved predicates [sc],
    [sp], [dom], [range] (§2: these are disjoint from the graph alphabet),
    and may be mixed freely with data triples in one file.  Lines are
    trimmed of [String.trim]'s whitespace; blank lines and lines starting
    with [#] are skipped.

    Every reader goes through one {!scanner}: a refillable byte buffer that
    a file fills in 64 KiB blocks (an in-memory document is a single
    block).  Lines are found in the buffer and parsed in place, each term
    copied out once.  A line over the cap is never materialised, so the
    scanner holds at most the cap plus one block, whatever the input. *)

exception Parse_error of string * int
(** [(message, line_number)]. *)

(** {1 Writing} *)

val write_graph : out_channel -> Graphstore.Graph.t -> unit

val write_ontology : out_channel -> Ontology.t -> unit

val save :
  string -> graph:Graphstore.Graph.t -> ontology:Ontology.t -> unit
(** [save path ~graph ~ontology] writes both into one file. *)

(** {1 The line scanner} *)

val default_max_line_bytes : int
(** The default line-length cap (1 MiB).  A line of exactly the cap is
    read; a longer one is a typed oversized-line [Parse_error] (strict) or a
    counted malformed line (lenient, and the load resumes at the next
    line).  Its bytes are dropped as soon as they pass the cap, so a
    multi-gigabyte hostile line costs no more memory than a normal one. *)

type scanner
(** A bounded line reader over one input channel, which it owns: it reads
    ahead, so nothing else may read the channel while it is in use. *)

val scanner : max_line_bytes:int -> in_channel -> scanner
(** A scanner filling its buffer from the channel with [input]; it keeps
    at most [max_line_bytes] of one line plus one 64 KiB block.  [input]
    returns what one [read] delivers, so on a socket or pipe a line is
    handed out as soon as its newline arrives. *)

val next_line : scanner -> [ `Line of string | `Oversized | `Eof ]
(** The next line without its ['\n'] (a final line with no newline is
    still a line), [`Oversized] for a line longer than [max_line_bytes] (it
    is skipped to its newline, so the stream resumes at the next line), or
    [`Eof].  The query server frames its requests with this.
    @raise Sys_error when the channel's [read] fails. *)

(** {1 Reading triples} *)

val read : in_channel -> Graphstore.Graph.t * Ontology.t
(** Parse a (possibly mixed) triple stream into a fresh graph and ontology
    sharing one interner.  Nodes mentioned only in ontology triples become
    graph nodes too (they are class nodes of [V_G ∩ V_K]).
    @raise Parse_error on malformed lines. *)

val load : string -> Graphstore.Graph.t * Ontology.t

type report = {
  triples : int;  (** well-formed triples ingested *)
  malformed : int;  (** malformed lines skipped (always 0 when strict) *)
  errors : (string * int) list;
      (** the first few [(message, line)] parse errors, oldest first, for
          diagnostics — capped so a thoroughly broken file cannot blow up
          memory *)
}

val read_report :
  ?lenient:bool -> ?max_line_bytes:int -> in_channel -> (Graphstore.Graph.t * Ontology.t) * report
(** Like {!read}, also returning an ingestion {!report}.  With
    [~lenient:true] (default [false]) malformed lines — including lines
    longer than [max_line_bytes] (default {!default_max_line_bytes}) — are
    counted and skipped instead of aborting the load: real-world triple
    dumps routinely contain a handful of broken lines, and a robust loader
    should salvage the rest.  Strict mode still raises [Parse_error] on the
    first bad or oversized line. *)

val read_string_report :
  ?lenient:bool -> ?max_line_bytes:int -> string -> (Graphstore.Graph.t * Ontology.t) * report
(** {!read_report} over an in-memory document, scanned as a single block
    (the fuzzing harness's entry point — no temp files). *)

val load_report :
  ?lenient:bool -> ?max_line_bytes:int -> string -> (Graphstore.Graph.t * Ontology.t) * report
(** {!read_report} on a file, opened in binary mode (a CRLF line ends in a
    ['\r'], which trimming removes). *)
