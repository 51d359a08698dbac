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

(* The in-memory reader (the fuzzer's entry point) must agree with the
   channel reader on an ordinary mixed document. *)
let test_string_reader () =
  let doc = "# header\n<a> <p> <b> .\n\nbroken line\n<b> <sc> <c> .\n" in
  let (g1, _), r1 = Nt.read_string_report ~lenient:true doc in
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      let (g2, _), r2 = Nt.load_report ~lenient:true path in
      check Alcotest.int "same triples" r2.Nt.triples r1.Nt.triples;
      check Alcotest.int "same malformed" r2.Nt.malformed r1.Nt.malformed;
      check Alcotest.int "same nodes" (Graph.n_nodes g2) (Graph.n_nodes g1);
      check Alcotest.int "same edges" (Graph.n_edges g2) (Graph.n_edges g1))

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
   stored answer digest; pin the bytes written for two generated datasets. *)
let test_save_order_pinned () =
  let digest (graph, ontology) =
    with_temp_file (fun path ->
        Nt.save path ~graph ~ontology;
        Digest.to_hex (Digest.file path))
  in
  check Alcotest.string "L4All L1, seed 1404" "aa724735ecca53fe9ead94119b7d3267"
    (digest (Datagen.L4all.generate_scale ~seed:1404 Datagen.L4all.L1));
  check Alcotest.string "YAGO-sim 0.01, seed 2015" "8eacd31822ed1fa0b2fb73c268a11102"
    (digest (Datagen.Yago_sim.generate ~params:{ Datagen.Yago_sim.scale = 0.01; seed = 2015 } ()))

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
          Alcotest.test_case "string reader mirrors channel reader" `Quick test_string_reader;
        ] );
    ]
