(* Tests for the triple-file persistence layer: writing, parsing, escaping,
   round-trips of data graphs and ontologies, and error reporting. *)

module Graph = Graphstore.Graph
module Nt = Ntriples.Nt

let check = Alcotest.check

let with_temp_file f =
  let path = Filename.temp_file "omega-test" ".nt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let fixture () =
  let g = Graph.create () in
  let a = Graph.add_node g "alice"
  and b = Graph.add_node g "bob"
  and lonely = Graph.add_node g "lonely node" in
  ignore lonely;
  Graph.add_edge_s g a "knows" b;
  Graph.add_edge_s g b "type" (Graph.add_node g "Person");
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subclass k "Person" "Agent";
  Ontology.add_subproperty k "knows" "relatesTo";
  Ontology.add_domain k "knows" "Person";
  Ontology.add_range k "knows" "Person";
  (g, k)

let test_roundtrip () =
  let g, k = fixture () in
  with_temp_file (fun path ->
      Nt.save path ~graph:g ~ontology:k;
      let g', k' = Nt.load path in
      check Alcotest.int "edges" (Graph.n_edges g) (Graph.n_edges g');
      (* Agent appears as a class node after the roundtrip *)
      check Alcotest.bool "class node added" true (Graph.find_node g' "Agent" <> None);
      check Alcotest.bool "isolated node kept" true (Graph.find_node g' "lonely node" <> None);
      let alice = Option.get (Graph.find_node g' "alice") in
      let knows = Graphstore.Interner.intern (Graph.interner g') "knows" in
      check Alcotest.int "alice knows one" 1 (List.length (Graph.neighbors g' alice knows Graph.Out));
      let interner = Ontology.interner k' in
      let person = Graphstore.Interner.intern interner "Person" in
      check Alcotest.(list int) "subclass kept"
        [ Graphstore.Interner.intern interner "Agent" ]
        (Ontology.super_classes k' person);
      let knows_p = Graphstore.Interner.intern interner "knows" in
      check Alcotest.bool "subproperty kept" true (Ontology.super_properties k' knows_p <> []);
      check Alcotest.bool "domain kept" true (Ontology.domain k' knows_p = Some person))

let test_escaping () =
  let g = Graph.create () in
  let weird = "a>b\\c <d>" in
  let x = Graph.add_node g weird and y = Graph.add_node g "plain" in
  Graph.add_edge_s g x "p>q" y;
  let k = Ontology.create (Graph.interner g) in
  with_temp_file (fun path ->
      Nt.save path ~graph:g ~ontology:k;
      let g', _ = Nt.load path in
      check Alcotest.bool "weird label survives" true (Graph.find_node g' weird <> None);
      let x' = Option.get (Graph.find_node g' weird) in
      let p = Graphstore.Interner.intern (Graph.interner g') "p>q" in
      check Alcotest.int "weird edge label survives" 1
        (List.length (Graph.neighbors g' x' p Graph.Out)))

let test_comments_and_blank_lines () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "# a comment\n\n<a> <p> <b> .\n   \n";
      close_out oc;
      let g, _ = Nt.load path in
      check Alcotest.int "one edge" 1 (Graph.n_edges g);
      check Alcotest.int "two nodes" 2 (Graph.n_nodes g))

let test_parse_errors () =
  let bad_cases = [ "<a> <p> <b>"; "<a> <p>"; "a <p> <b> ."; "<a <p> <b> ." ] in
  List.iter
    (fun line ->
      with_temp_file (fun path ->
          let oc = open_out path in
          output_string oc (line ^ "\n");
          close_out oc;
          match Nt.load path with
          | _ -> Alcotest.failf "expected %S to fail" line
          | exception Nt.Parse_error (_, 1) -> ()))
    bad_cases

let test_line_numbers () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "<a> <p> <b> .\n<broken\n";
      close_out oc;
      match Nt.load path with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Nt.Parse_error (_, 2) -> ())

let test_lenient_mixed () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        "<a> <p> <b> .\n\
         <broken\n\
         # comment\n\
         <b> <p> <c> .\n\
         <a> <p>\n\
         junk line\n\
         <c> <sc> <D> .\n\
         <c> <p> <a> \n";
      close_out oc;
      (* strict load still aborts on the first malformed line *)
      (match Nt.load path with
      | _ -> Alcotest.fail "strict load must fail"
      | exception Nt.Parse_error (_, 2) -> ());
      let (g, k), report = Nt.load_report ~lenient:true path in
      check Alcotest.int "triples kept" 3 report.Nt.triples;
      check Alcotest.int "malformed counted" 4 report.Nt.malformed;
      check
        Alcotest.(list int)
        "error line numbers recorded" [ 2; 5; 6; 8 ]
        (List.map snd report.Nt.errors);
      check Alcotest.int "edges from the good lines" 2 (Graph.n_edges g);
      let interner = Ontology.interner k in
      let c = Graphstore.Interner.intern interner "c" in
      check Alcotest.bool "ontology line kept" true (Ontology.super_classes k c <> []);
      (* a clean file reports zero malformed lines *)
      let oc = open_out path in
      output_string oc "<a> <p> <b> .\n";
      close_out oc;
      let _, clean = Nt.load_report ~lenient:true path in
      check Alcotest.int "clean file: no malformed" 0 clean.Nt.malformed;
      check Alcotest.int "clean file: one triple" 1 clean.Nt.triples)

(* A line longer than the cap must fail with a typed oversized-line error
   in strict mode and be counted + skipped in lenient mode, with the
   reader retaining at most [max_line_bytes] of it — never the whole line
   (the [input_line] failure mode this replaces would materialise a
   multi-gigabyte hostile line in full). *)
let test_oversized_line () =
  let cap = 64 in
  let doc =
    "<a> <p> <b> .\n" ^ "<" ^ String.make 500 'x' ^ "> <p> <c> .\n" ^ "<c> <p> <d> .\n"
  in
  (* strict: typed Parse_error naming the offending line *)
  (match Nt.read_string_report ~max_line_bytes:cap doc with
  | _ -> Alcotest.fail "expected a Parse_error on the oversized line"
  | exception Nt.Parse_error (msg, line) ->
    check Alcotest.int "error on line 2" 2 line;
    let contains sub str =
      let n = String.length sub and m = String.length str in
      let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "message mentions the cap" true (contains "64" msg));
  (* lenient: counted + skipped, the rest of the file salvaged *)
  let (g, _), report = Nt.read_string_report ~lenient:true ~max_line_bytes:cap doc in
  check Alcotest.int "one malformed line" 1 report.Nt.malformed;
  check Alcotest.int "two triples kept" 2 report.Nt.triples;
  check Alcotest.int "four nodes" 4 (Graph.n_nodes g);
  (* the default cap applies to files too *)
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      let _, r = Nt.load_report ~lenient:true ~max_line_bytes:cap path in
      check Alcotest.int "file reader agrees" 1 r.Nt.malformed)

(* The scanner drops an oversized line's bytes as soon as they pass the cap,
   so loading a 4 MiB line allocates about the cap plus one 64 KiB block,
   however long the line; here the cap is itself over a block. *)
let test_oversized_line_memory () =
  let cap = 100_000 in
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "<a> <p> <b> .\n<";
      output_string oc (String.make (4 lsl 20) 'x');
      output_string oc "> <p> <c> .\n<c> <p> <d> .\n";
      close_out oc;
      let before = Gc.allocated_bytes () in
      let _, r = Nt.load_report ~lenient:true ~max_line_bytes:cap path in
      let allocated = Gc.allocated_bytes () -. before in
      check Alcotest.int "the long line is one malformed line" 1 r.Nt.malformed;
      check Alcotest.int "both short lines kept" 2 r.Nt.triples;
      check Alcotest.bool
        (Printf.sprintf "allocated %.0f bytes, under 4 x (cap + block)" allocated)
        true
        (allocated < float_of_int (4 * (cap + 65_536))))

(* --- differential: the loader against the reference reader ---------- *)

(* The reference model is the straightforward reader the scanner replaced:
   [input_char] one byte at a time into a [Buffer], [String.trim], and a
   [Buffer] per term.  The scanner must reproduce it exactly — triples,
   malformed count, recorded errors, the strict [Parse_error], and so the
   graph [Nt.save] writes. *)
module Model = struct
  type cursor = { line : string; mutable pos : int; lineno : int }

  let fail c msg = raise (Nt.Parse_error (msg, c.lineno))

  let skip_ws c =
    let n = String.length c.line in
    while c.pos < n && (c.line.[c.pos] = ' ' || c.line.[c.pos] = '\t') do
      c.pos <- c.pos + 1
    done

  let term c =
    skip_ws c;
    let n = String.length c.line in
    if c.pos >= n || c.line.[c.pos] <> '<' then fail c "expected '<'";
    c.pos <- c.pos + 1;
    let buf = Buffer.create 32 in
    let rec scan () =
      if c.pos >= n then fail c "unterminated term"
      else
        match c.line.[c.pos] with
        | '>' -> c.pos <- c.pos + 1
        | '\\' ->
          if c.pos + 1 >= n then fail c "dangling escape";
          Buffer.add_char buf c.line.[c.pos + 1];
          c.pos <- c.pos + 2;
          scan ()
        | ch ->
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1;
          scan ()
    in
    scan ();
    Buffer.contents buf

  let parse_line lineno line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then None
    else begin
      let c = { line = trimmed; pos = 0; lineno } in
      let s = term c in
      let p = term c in
      let o = term c in
      skip_ws c;
      if c.pos >= String.length c.line || c.line.[c.pos] <> '.' then
        fail c "expected terminating '.'";
      Some (s, p, o)
    end

  let input_line_bounded ic cap =
    let buf = Buffer.create 128 in
    let rec go count oversized =
      match input_char ic with
      | exception End_of_file ->
        if count = 0 then `Eof else if oversized then `Oversized else `Line (Buffer.contents buf)
      | '\n' -> if oversized then `Oversized else `Line (Buffer.contents buf)
      | c ->
        if count < cap then Buffer.add_char buf c;
        go (count + 1) (oversized || count >= cap)
    in
    go 0 false

  let ingest g k (s, p, o) =
    match p with
    | "sc" ->
      Ontology.add_subclass k s o;
      ignore (Graph.add_node g s);
      ignore (Graph.add_node g o)
    | "sp" -> Ontology.add_subproperty k s o
    | "dom" -> Ontology.add_domain k s o
    | "range" -> Ontology.add_range k s o
    | "node" -> ignore (Graph.add_node g s)
    | _ ->
      let src = Graph.add_node g s in
      let dst = Graph.add_node g o in
      Graph.add_edge_s g src p dst

  let read_report ~lenient ~max_line_bytes ic =
    let g = Graph.create () in
    let k = Ontology.create (Graph.interner g) in
    let lineno = ref 0 in
    let triples = ref 0 and malformed = ref 0 and errors = ref [] in
    let record msg l =
      incr malformed;
      if !malformed <= 5 then errors := (msg, l) :: !errors
    in
    let rec loop () =
      match input_line_bounded ic max_line_bytes with
      | `Eof -> ()
      | `Oversized ->
        incr lineno;
        let msg = Printf.sprintf "line longer than %d bytes" max_line_bytes in
        if lenient then record msg !lineno else raise (Nt.Parse_error (msg, !lineno));
        loop ()
      | `Line line ->
        incr lineno;
        (match parse_line !lineno line with
        | None -> ()
        | Some spo ->
          ingest g k spo;
          incr triples
        | exception Nt.Parse_error (msg, l) when lenient -> record msg l);
        loop ()
    in
    loop ();
    ((g, k), { Nt.triples = !triples; malformed = !malformed; errors = List.rev !errors })
end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Everything observable about one load: the strict error, or the report
   and the bytes [Nt.save] writes for the loaded graph. *)
let outcome load =
  match load () with
  | exception Nt.Parse_error (msg, line) -> Error (msg, line)
  | (graph, ontology), report ->
    with_temp_file (fun path ->
        Nt.save path ~graph ~ontology;
        Ok (report.Nt.triples, report.Nt.malformed, report.Nt.errors, read_file path))

let show_outcome = function
  | Error (msg, line) -> Printf.sprintf "Parse_error (%S, %d)" msg line
  | Ok (triples, malformed, errors, saved) ->
    Printf.sprintf "triples %d, malformed %d, errors [%s], %d saved bytes (md5 %s)" triples
      malformed
      (String.concat "; " (List.map (fun (m, l) -> Printf.sprintf "%S@%d" m l) errors))
      (String.length saved)
      (Digest.to_hex (Digest.string saved))

(* Documents of generated lines: escaped and plain triples (data and
   ontology predicates), CRLF endings, tabs and form feeds, comments, blank
   and malformed lines, raw bytes, and triples of exactly [cap - 1], [cap]
   and [cap + 1] bytes; about one in four is padded past 200 KiB so lines
   straddle block refills.  Caps range from tiny to more than a block. *)
let gen_doc =
  let open QCheck2.Gen in
  let label =
    let plain = map (Printf.sprintf "n%d") (int_bound 40) in
    let escaped =
      map (String.concat "")
        (list_size (int_range 1 4) (oneofl [ "a"; "\\>"; "\\\\"; " "; "\t"; "x y"; "<" ]))
    in
    frequency [ (4, plain); (1, escaped) ]
  in
  let pred = frequency [ (6, oneofl [ "p"; "q"; "type"; "knows" ]); (1, oneofl [ "sc"; "sp"; "dom"; "range"; "node" ]) ] in
  let ws = oneofl [ ""; " "; "  "; "\t"; " \t" ] in
  let edge = oneofl [ ""; ""; " "; "\t"; "\012"; "\r"; " \r"; "\012 " ] in
  let triple =
    map
      (fun ((s, p, o), (w1, w2, w3), (lead, trail)) ->
        Printf.sprintf "%s<%s>%s<%s>%s<%s>%s.%s" lead s w1 p w2 o w3 trail)
      (triple (triple label pred label) (triple ws ws ws) (pair edge edge))
  in
  let other =
    oneof
      [
        return "";
        return "   \t";
        return "\r";
        map (fun s -> "# " ^ s) label;
        return "<a> <p> <b>";
        return "<a> <p>";
        return "a <p> <b> .";
        return "<a <p> <b> .";
        return "<a> <p> <b\\";
        return "<a> <p> <b> . trailing";
        map (fun s -> "<" ^ s ^ "> <p> <" ^ s) label;
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 30)
        |> map (String.map (fun c -> if c = '\n' then ' ' else c));
      ]
  in
  let line = frequency [ (5, triple); (3, other) ] in
  let cap = oneof [ int_range 13 200; int_range 1_000 5_000; int_range 65_530 65_545; int_range 100_000 140_000 ] in
  (* a valid triple of exactly [len] bytes (len >= 13) *)
  let sized len = "<" ^ String.make (len - 12) 'x' ^ "> <p> <o> ." in
  cap >>= fun cap ->
  let boundary = oneofl [ sized (cap - 1); sized cap; sized (cap + 1); sized (cap + 1) ^ "\r" ] in
  let body = pair (list_size (int_bound 40) (frequency [ (6, line); (1, boundary) ])) bool in
  let assemble pad (lines, final_newline) =
    let all = if pad = [] then lines else pad @ lines @ pad in
    let doc = String.concat "\n" all in
    (cap, if final_newline && all <> [] then doc ^ "\n" else doc)
  in
  (* padded documents (over 200 KiB) are not shrunk: each step would reload them *)
  frequency
    [ (3, map (assemble []) body); (1, no_shrink (map2 assemble (list_repeat 6_000 triple) body)) ]

let loader_matches_model =
  QCheck2.Test.make ~name:"loader matches the reference reader" ~count:60
    ~print:(fun (cap, doc) ->
      Printf.sprintf "cap %d, %d-byte document starting %S" cap (String.length doc)
        (String.sub doc 0 (min 400 (String.length doc))))
    gen_doc
    (fun (cap, doc) ->
      with_temp_file (fun path ->
          write_file path doc;
          List.for_all
            (fun lenient ->
              let model =
                outcome (fun () ->
                    In_channel.with_open_bin path (Model.read_report ~lenient ~max_line_bytes:cap))
              in
              List.for_all
                (fun (reader, load) ->
                  let got = outcome load in
                  got = model
                  || QCheck2.Test.fail_reportf "%s (lenient %b):@ got %s@ model %s" reader lenient
                       (show_outcome got) (show_outcome model))
                [
                  ("read_string_report", fun () -> Nt.read_string_report ~lenient ~max_line_bytes:cap doc);
                  ("load_report", fun () -> Nt.load_report ~lenient ~max_line_bytes:cap path);
                ])
            [ false; true ]))

let test_generated_dataset_roundtrip () =
  (* an end-to-end sized roundtrip: the L4All 21-timeline graph *)
  let g, k = Datagen.L4all.generate ~timelines:21 () in
  with_temp_file (fun path ->
      Nt.save path ~graph:g ~ontology:k;
      let g', k' = Nt.load path in
      check Alcotest.int "nodes" (Graph.n_nodes g) (Graph.n_nodes g');
      check Alcotest.int "edges" (Graph.n_edges g) (Graph.n_edges g');
      (* queries answer identically on the reloaded graph *)
      let q = Datagen.L4all.query_text 3 Core.Query.Exact in
      let on gk kk =
        match Core.Engine.run_string ~graph:gk ~ontology:kk ~limit:max_int q with
        | Ok o ->
          List.map
            (fun (a : Core.Engine.answer) -> List.map snd a.Core.Engine.bindings)
            o.Core.Engine.answers
          |> List.sort compare
        | Error m -> Alcotest.fail m
      in
      check Alcotest.(list (list string)) "same answers" (on g k) (on g' k'))

(* [Nt.save] writes edges in [Graph.iter_edges] order.  That order decides
   the oid numbering of a reloaded graph, and so the tie order behind every
   stored answer digest; pin the bytes written for two generated datasets,
   for one of them reloaded and saved again, and for it reloaded, frozen and
   saturated (the [omega_cli saturate] path, which adds edges after the
   index is built). *)
let test_save_order_pinned () =
  let digest (graph, ontology) =
    with_temp_file (fun path ->
        Nt.save path ~graph ~ontology;
        Digest.to_hex (Digest.file path))
  in
  let reloaded ?(saturate = false) (graph, ontology) =
    with_temp_file (fun path ->
        Nt.save path ~graph ~ontology;
        let graph, ontology = Nt.load path in
        if saturate then begin
          Graph.freeze graph;
          ignore (Rdfs.saturate graph ontology)
        end;
        digest (graph, ontology))
  in
  let l1 = Datagen.L4all.generate_scale ~seed:1404 Datagen.L4all.L1 in
  check Alcotest.string "L4All L1, seed 1404" "aa724735ecca53fe9ead94119b7d3267" (digest l1);
  check Alcotest.string "YAGO-sim 0.01, seed 2015" "8eacd31822ed1fa0b2fb73c268a11102"
    (digest (Datagen.Yago_sim.generate ~params:{ Datagen.Yago_sim.scale = 0.01; seed = 2015 } ()));
  check Alcotest.string "L4All L1 saved, reloaded, saved" "fe52905849e63e44ffa6c6018d6384a2"
    (reloaded l1);
  check Alcotest.string "L4All L1 reloaded, frozen, saturated" "625f3fbe9a5075abd68c882b8a5fdac0"
    (reloaded ~saturate:true l1)

let () =
  Alcotest.run "ntriples"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "graph + ontology" `Quick test_roundtrip;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "generated dataset" `Quick test_generated_dataset_roundtrip;
          Alcotest.test_case "save order pinned" `Quick test_save_order_pinned;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "line numbers" `Quick test_line_numbers;
          Alcotest.test_case "lenient mode skips bad lines" `Quick test_lenient_mixed;
          Alcotest.test_case "oversized lines bounded" `Quick test_oversized_line;
          Alcotest.test_case "oversized line memory bounded" `Quick test_oversized_line_memory;
          QCheck_alcotest.to_alcotest loader_matches_model;
        ] );
    ]
