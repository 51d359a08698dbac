module Graph = Graphstore.Graph
module Interner = Graphstore.Interner

exception Parse_error of string * int

(* Reserved predicates: the four ontology edge labels of E_K (§2) plus a
   marker for isolated nodes (which plain triples cannot express). *)
let p_sc = "sc"
let p_sp = "sp"
let p_dom = "dom"
let p_range = "range"
let p_node = "node"

(* Writes [s] with [>] and [\\] backslash-escaped, straight to [oc]: the
   unescaped runs between escapes go out as substrings. *)
let output_escaped oc s =
  let n = String.length s in
  let rec go from i =
    if i = n then output_substring oc s from (i - from)
    else
      match s.[i] with
      | ('>' | '\\') as c ->
        output_substring oc s from (i - from);
        output_char oc '\\';
        output_char oc c;
        go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0

let write_triple oc s p o =
  output_char oc '<';
  output_escaped oc s;
  output_string oc "> <";
  output_escaped oc p;
  output_string oc "> <";
  output_escaped oc o;
  output_string oc "> .\n"

let write_graph oc g =
  let interner = Graph.interner g in
  let touched = Graphstore.Oid_set.create ~capacity:(Graph.n_nodes g) () in
  Graph.iter_edges g (fun src label dst ->
      Graphstore.Oid_set.add touched src;
      Graphstore.Oid_set.add touched dst;
      write_triple oc (Graph.node_label g src) (Interner.name interner label) (Graph.node_label g dst));
  Graph.iter_nodes g (fun oid ->
      if not (Graphstore.Oid_set.mem touched oid) then
        let l = Graph.node_label g oid in
        write_triple oc l p_node l)

let write_ontology oc k =
  let interner = Ontology.interner k in
  let name = Interner.name interner in
  List.iter
    (fun cls -> List.iter (fun super -> write_triple oc (name cls) p_sc (name super)) (Ontology.super_classes k cls))
    (Ontology.classes k);
  List.iter
    (fun p ->
      List.iter (fun super -> write_triple oc (name p) p_sp (name super)) (Ontology.super_properties k p);
      (match Ontology.domain k p with Some c -> write_triple oc (name p) p_dom (name c) | None -> ());
      match Ontology.range k p with Some c -> write_triple oc (name p) p_range (name c) | None -> ())
    (Ontology.properties k)

let save path ~graph ~ontology =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      write_graph oc graph;
      write_ontology oc ontology)

(* --- the line scanner ------------------------------------------------ *)

(* One bounded line scanner serves every line-oriented reader: N-Triples
   files (filled in [block_bytes] blocks), in-memory documents (the whole
   string is the one block) and the query server's request frames.  Lines
   are found with [Bytes.index_from] and handed out as a span of the
   buffer, so the loader parses them in place.  A line longer than [cap]
   is never materialised: once the pending bytes pass the cap with no
   newline in sight they are dropped and the scanner skips to the next
   newline, so it never holds more than [cap] plus one block. *)

let block_bytes = 65536

type scanner = {
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unconsumed byte *)
  mutable len : int;  (** end of the buffered bytes *)
  mutable seen : int;  (** [buf.[pos .. seen)] holds no newline *)
  mutable skipping : bool;  (** inside an oversized line whose head was dropped *)
  mutable eof : bool;
  cap : int;
  fill : Bytes.t -> int -> int -> int;  (** [input]-like; 0 at end of input *)
  mutable line_start : int;  (** the line last returned as [`Span] *)
  mutable line_stop : int;
}

let make ~cap ~buf ~len ~eof fill =
  { buf; pos = 0; len; seen = 0; skipping = false; eof; cap = max 0 cap; fill; line_start = 0;
    line_stop = 0 }

let scanner ~max_line_bytes ic =
  make ~cap:max_line_bytes ~buf:(Bytes.create block_bytes) ~len:0 ~eof:false (input ic)

let string_scanner ~max_line_bytes s =
  make ~cap:max_line_bytes ~buf:(Bytes.of_string s) ~len:(String.length s) ~eof:true (fun _ _ _ -> 0)

(* Make room and read one more block: keep the pending line (at most [cap]
   bytes) at the front of the buffer, or drop it once it is over the cap. *)
let refill sc =
  let pending = sc.len - sc.pos in
  if sc.skipping || pending > sc.cap then begin
    sc.skipping <- true;
    sc.len <- 0
  end
  else begin
    Bytes.blit sc.buf sc.pos sc.buf 0 pending;
    sc.len <- pending;
    if sc.len = Bytes.length sc.buf then begin
      let grown = Bytes.create (min (2 * sc.len) (sc.cap + block_bytes)) in
      Bytes.blit sc.buf 0 grown 0 sc.len;
      sc.buf <- grown
    end
  end;
  sc.pos <- 0;
  sc.seen <- sc.len;
  let n = sc.fill sc.buf sc.len (min block_bytes (Bytes.length sc.buf - sc.len)) in
  if n = 0 then sc.eof <- true else sc.len <- sc.len + n

(* The next line as [`Span] (its bytes are [buf.[line_start .. line_stop)],
   valid until the next call), [`Oversized] for a line over the cap, or
   [`Eof].  A final line without a newline is still a line. *)
let rec next_span sc =
  let nl =
    match Bytes.index_from sc.buf sc.seen '\n' with
    | i when i < sc.len -> i
    | _ | (exception Not_found) -> -1
  in
  if nl < 0 && not sc.eof then begin
    refill sc;
    next_span sc
  end
  else begin
    let start = sc.pos and stop = if nl < 0 then sc.len else nl in
    sc.pos <- (if nl < 0 then sc.len else nl + 1);
    sc.seen <- sc.pos;
    if sc.skipping then begin
      sc.skipping <- false;
      `Oversized
    end
    else if nl < 0 && start = stop then `Eof
    else if stop - start > sc.cap then `Oversized
    else begin
      sc.line_start <- start;
      sc.line_stop <- stop;
      `Span
    end
  end

let next_line sc =
  match next_span sc with
  | `Span -> `Line (Bytes.sub_string sc.buf sc.line_start (sc.line_stop - sc.line_start))
  | (`Oversized | `Eof) as r -> r

(* --- parsing ------------------------------------------------------- *)

(* A line being parsed in place: [b.[pos .. stop)] is what is left of it. *)
type cursor = { b : Bytes.t; mutable pos : int; stop : int; lineno : int }

let fail c msg = raise (Parse_error (msg, c.lineno))

let skip_ws c =
  while c.pos < c.stop && (Bytes.get c.b c.pos = ' ' || Bytes.get c.b c.pos = '\t') do
    c.pos <- c.pos + 1
  done

let unescape b first last =
  let buf = Buffer.create (last - first) in
  let i = ref first in
  while !i < last do
    let ch = Bytes.get b !i in
    if ch = '\\' then begin
      Buffer.add_char buf (Bytes.get b (!i + 1));
      i := !i + 2
    end
    else begin
      Buffer.add_char buf ch;
      incr i
    end
  done;
  Buffer.contents buf

(* One [<...>] term: a single [Bytes.sub_string], or a decode through a
   [Buffer] when the term holds an escape. *)
let term c =
  skip_ws c;
  if c.pos >= c.stop || Bytes.get c.b c.pos <> '<' then fail c "expected '<'";
  let first = c.pos + 1 in
  let rec scan i escaped =
    if i >= c.stop then fail c "unterminated term"
    else
      match Bytes.get c.b i with
      | '>' ->
        c.pos <- i + 1;
        if escaped then unescape c.b first i else Bytes.sub_string c.b first (i - first)
      | '\\' ->
        if i + 1 >= c.stop then fail c "dangling escape";
        scan (i + 2) true
      | _ -> scan (i + 1) escaped
  in
  scan first false

(* [String.trim]'s whitespace set *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let parse_span lineno b start stop =
  let start = ref start and stop = ref stop in
  while !start < !stop && is_space (Bytes.get b !start) do
    incr start
  done;
  while !stop > !start && is_space (Bytes.get b (!stop - 1)) do
    decr stop
  done;
  if !start = !stop || Bytes.get b !start = '#' then None
  else begin
    let c = { b; pos = !start; stop = !stop; lineno } in
    let s = term c in
    let p = term c in
    let o = term c in
    skip_ws c;
    if c.pos >= c.stop || Bytes.get c.b c.pos <> '.' then fail c "expected terminating '.'";
    Some (s, p, o)
  end

type report = { triples : int; malformed : int; errors : (string * int) list }

let max_recorded_errors = 5

let ingest g k (s, p, o) =
  if p = p_sc then begin
    Ontology.add_subclass k s o;
    ignore (Graph.add_node g s);
    ignore (Graph.add_node g o)
  end
  else if p = p_sp then Ontology.add_subproperty k s o
  else if p = p_dom then Ontology.add_domain k s o
  else if p = p_range then Ontology.add_range k s o
  else if p = p_node then ignore (Graph.add_node g s)
  else begin
    let src = Graph.add_node g s in
    let dst = Graph.add_node g o in
    Graph.add_edge_s g src p dst
  end

let default_max_line_bytes = 1 lsl 20 (* 1 MiB — generous for a triple line *)

(* The ingestion loop behind the channel and string readers. *)
let read_scanner ~lenient ~max_line_bytes sc =
  let g = Graph.create () in
  let k = Ontology.create (Graph.interner g) in
  let lineno = ref 0 in
  let triples = ref 0 and malformed = ref 0 and errors = ref [] in
  let record msg l =
    incr malformed;
    if !malformed <= max_recorded_errors then errors := (msg, l) :: !errors
  in
  let rec loop () =
    match next_span sc with
    | `Eof -> ()
    | `Oversized ->
      incr lineno;
      let msg = Printf.sprintf "line longer than %d bytes" max_line_bytes in
      if lenient then record msg !lineno else raise (Parse_error (msg, !lineno));
      loop ()
    | `Span ->
      incr lineno;
      (match parse_span !lineno sc.buf sc.line_start sc.line_stop with
      | None -> ()
      | Some spo ->
        ingest g k spo;
        incr triples
      | exception Parse_error (msg, l) when lenient -> record msg l);
      loop ()
  in
  loop ();
  ((g, k), { triples = !triples; malformed = !malformed; errors = List.rev !errors })

let read_report ?(lenient = false) ?(max_line_bytes = default_max_line_bytes) ic =
  read_scanner ~lenient ~max_line_bytes (scanner ~max_line_bytes ic)

let read_string_report ?(lenient = false) ?(max_line_bytes = default_max_line_bytes) s =
  read_scanner ~lenient ~max_line_bytes (string_scanner ~max_line_bytes s)

let read ic = fst (read_report ~lenient:false ic)

let load_report ?lenient ?max_line_bytes path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_report ?lenient ?max_line_bytes ic)

let load path = fst (load_report ~lenient:false path)
