(* Tests for the workload generators: determinism, structural invariants that
   the paper's query set relies on, and the RNG/Zipf substrates. *)

module Graph = Graphstore.Graph
module L4 = Datagen.L4all
module Yago = Datagen.Yago_sim
module Rng = Datagen.Rng
module Zipf = Datagen.Zipf

let check = Alcotest.check

let run ?(limit = max_int) (g, k) q =
  match Core.Engine.run_string ~graph:g ~ontology:k ~limit q with
  | Ok o -> o
  | Error m -> Alcotest.failf "query error: %s" m

let count ?limit gk q = List.length (run ?limit gk q).Core.Engine.answers

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  check Alcotest.(list int) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create 43 in
  check Alcotest.bool "different seed differs" true (seq (Rng.create 42) <> seq c)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_pick_shuffle () =
  let r = Rng.create 5 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 100 do
    if not (Array.mem (Rng.pick r arr) arr) then Alcotest.fail "pick outside array"
  done;
  let copy = Array.copy arr in
  Rng.shuffle r copy;
  check Alcotest.(list int) "permutation" (Array.to_list arr)
    (List.sort compare (Array.to_list copy));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick r [||]))

let test_rng_bool_probability () =
  let r = Rng.create 11 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000. in
  check Alcotest.bool "roughly 0.3" true (rate > 0.27 && rate < 0.33)

(* --- Zipf ------------------------------------------------------------- *)

let test_zipf_bounds_and_skew () =
  let z = Zipf.create ~n:100 ~alpha:1.0 in
  let r = Rng.create 3 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Zipf.sample z r in
    if k < 0 || k >= 100 then Alcotest.fail "rank out of range";
    counts.(k) <- counts.(k) + 1
  done;
  check Alcotest.bool "rank 0 dominates rank 50" true (counts.(0) > 5 * counts.(50));
  check Alcotest.int "n" 100 (Zipf.n z)

let test_zipf_uniform_when_alpha_zero () =
  let z = Zipf.create ~n:10 ~alpha:0.0 in
  let r = Rng.create 9 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    counts.(Zipf.sample z r) <- counts.(Zipf.sample z r) + 1
  done;
  Array.iter (fun c -> if c < 700 || c > 1300 then Alcotest.failf "not uniform: %d" c) counts

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~alpha:1.0))

(* --- L4All ------------------------------------------------------------ *)

let l1 = lazy (L4.generate ~timelines:143 ())

let test_l4_deterministic () =
  let g1, _ = L4.generate ~timelines:50 () in
  let g2, _ = L4.generate ~timelines:50 () in
  check Alcotest.int "same nodes" (Graph.n_nodes g1) (Graph.n_nodes g2);
  check Alcotest.int "same edges" (Graph.n_edges g1) (Graph.n_edges g2)

let test_l4_scaling_monotone () =
  let g1, _ = L4.generate ~timelines:21 () in
  let g2, _ = L4.generate ~timelines:42 () in
  check Alcotest.bool "bigger graph" true (Graph.n_nodes g2 > Graph.n_nodes g1);
  check Alcotest.bool "roughly doubles" true
    (float_of_int (Graph.n_edges g2) /. float_of_int (Graph.n_edges g1) > 1.6)

let test_l4_hierarchy_shapes () =
  let _, k = Lazy.force l1 in
  let interner = Ontology.interner k in
  let stats name =
    let id = Graphstore.Interner.intern interner name in
    Ontology.class_hierarchy_stats k id
  in
  check Alcotest.int "Episode depth" 2 (stats "Episode").Ontology.depth;
  check Alcotest.int "Subject depth" 2 (stats "Subject").Ontology.depth;
  check Alcotest.int "Occupation depth" 4 (stats "Occupation").Ontology.depth;
  check Alcotest.int "EQ Level depth" 2 (stats "Education Qualification Level").Ontology.depth;
  check Alcotest.int "Sector depth" 1 (stats "Industry Sector").Ontology.depth;
  check (Alcotest.float 0.5) "Subject fanout" 8.0 (stats "Subject").Ontology.avg_fanout;
  check (Alcotest.float 1.0) "Sector fanout" 21.0 (stats "Industry Sector").Ontology.avg_fanout

let test_l4_query_invariants () =
  let gk = Lazy.force l1 in
  (* Q8: class nodes have no outgoing type edges -> 0 exact answers *)
  check Alcotest.int "Q8 exact empty" 0 (count gk (L4.query_text 8 Core.Query.Exact));
  (* Q9: the pinned timeline-4 pattern has exactly one answer *)
  check Alcotest.int "Q9 exact singleton" 1 (count gk (L4.query_text 9 Core.Query.Exact));
  (* Q12: BTEC Introductory Diploma episodes never precede a prereq *)
  check Alcotest.int "Q12 exact empty" 0 (count gk (L4.query_text 12 Core.Query.Exact));
  (* Q12 RELAX: sibling levels do have prereq successors *)
  check Alcotest.bool "Q12 RELAX non-empty" true
    (count ~limit:100 gk (L4.query_text 12 Core.Query.Relax) > 0);
  (* Q10 rare at L1 *)
  check Alcotest.bool "Q10 small" true (count gk (L4.query_text 10 Core.Query.Exact) < 100)

let test_l4_query_invariants_scale () =
  (* the Q9/Q12 invariants survive the sibling-rotation scaling *)
  let gk = L4.generate ~timelines:500 () in
  check Alcotest.int "Q9 exact singleton at 500" 1 (count gk (L4.query_text 9 Core.Query.Exact));
  check Alcotest.int "Q12 exact empty at 500" 0 (count gk (L4.query_text 12 Core.Query.Exact))

let test_l4_type_closure_materialised () =
  let g, _ = Lazy.force l1 in
  (* 'Episode' (the root) must have a large type fan-in: every episode's
     type edges are materialised up the hierarchy *)
  let root = Option.get (Graph.find_node g "Episode") in
  let type_l = Graph.type_label g in
  check Alcotest.bool "root class degree" true (Graph.in_degree g root type_l > 1000)

let test_l4_query_text () =
  check Alcotest.string "exact" "(?X) <- (Librarians, type-, ?X)" (L4.query_text 10 Core.Query.Exact);
  check Alcotest.string "approx prefix" "(?X) <- APPROX (Librarians, type-, ?X)"
    (L4.query_text 10 Core.Query.Approx);
  check Alcotest.string "two-var head" "(?X, ?Y) <- (?X, job.type, ?Y)"
    (L4.query_text 4 Core.Query.Exact);
  Alcotest.check_raises "unknown id" (Invalid_argument "L4all.query_text: unknown query 13")
    (fun () -> ignore (L4.query_text 13 Core.Query.Exact))

let test_l4_all_queries_parse_and_run () =
  let gk = L4.generate ~timelines:21 () in
  List.iter
    (fun (id, _) ->
      List.iter
        (fun mode -> ignore (run ~limit:5 gk (L4.query_text id mode)))
        [ Core.Query.Exact; Core.Query.Approx; Core.Query.Relax ])
    L4.queries

(* --- YAGO-sim ----------------------------------------------------------- *)

let yago = lazy (Yago.generate ())

let test_yago_deterministic () =
  let g1, _ = Yago.generate () in
  let g2, _ = Yago.generate () in
  check Alcotest.int "same nodes" (Graph.n_nodes g1) (Graph.n_nodes g2);
  check Alcotest.int "same edges" (Graph.n_edges g1) (Graph.n_edges g2)

let test_yago_signature () =
  let g, k = Lazy.force yago in
  check Alcotest.int "38 edge labels" 38 (List.length (Graph.labels g));
  let roots = Ontology.property_roots k in
  check Alcotest.int "two property hierarchies" 2 (List.length roots);
  let sizes =
    List.map (fun r -> (Ontology.property_hierarchy_stats k r).Ontology.members - 1) roots
    |> List.sort compare
  in
  check Alcotest.(list int) "6 and 2 sub-properties" [ 2; 6 ] sizes;
  let class_roots = Ontology.class_roots k in
  check Alcotest.int "single taxonomy" 1 (List.length class_roots);
  check Alcotest.int "taxonomy depth 2" 2
    (Ontology.class_hierarchy_stats k (List.hd class_roots)).Ontology.depth

let test_yago_landmarks () =
  let g, _ = Lazy.force yago in
  List.iter
    (fun name ->
      if Graph.find_node g name = None then Alcotest.failf "missing landmark %s" name)
    [ "UK"; "Li_Peng"; "Halle_Saxony-Anhalt"; "Annie Haslam"; "wordnet_ziggurat"; "wordnet_city" ]

let test_yago_query_invariants () =
  let gk = Lazy.force yago in
  check Alcotest.int "Q2 exact = 2" 2 (count gk (Yago.query_text 2 Core.Query.Exact));
  check Alcotest.int "Q3 exact empty" 0 (count gk (Yago.query_text 3 Core.Query.Exact));
  check Alcotest.int "Q4 exact empty" 0 (count gk (Yago.query_text 4 Core.Query.Exact));
  check Alcotest.int "Q5 exact empty" 0 (count gk (Yago.query_text 5 Core.Query.Exact));
  check Alcotest.int "Q9 exact empty" 0 (count gk (Yago.query_text 9 Core.Query.Exact));
  check Alcotest.bool "Q7 well over 100" true
    (count gk (Yago.query_text 7 Core.Query.Exact) > 100);
  check Alcotest.bool "Q8 well over 100" true (count gk (Yago.query_text 8 Core.Query.Exact) > 100)

let test_yago_relax_rescues () =
  let gk = Lazy.force yago in
  let relax id = (run ~limit:100 gk (Yago.query_text id Core.Query.Relax)).Core.Engine.answers in
  check Alcotest.int "Q5 RELAX finds 100" 100 (List.length (relax 5));
  check Alcotest.int "Q9 RELAX finds 100" 100 (List.length (relax 9));
  List.iter
    (fun (a : Core.Engine.answer) ->
      if a.Core.Engine.distance <> 1 then Alcotest.fail "expected distance 1")
    (relax 5)

let test_yago_budget_aborts_q4_q5 () =
  let g, k = Lazy.force yago in
  let options = { Core.Options.default with Core.Options.max_tuples = Some 400_000 } in
  List.iter
    (fun id ->
      match
        Core.Engine.run_string ~graph:g ~ontology:k ~options ~limit:100
          (Yago.query_text id Core.Query.Approx)
      with
      | Ok o -> (
        match o.Core.Engine.termination with
        | Core.Engine.Exhausted { reason = Core.Governor.Tuple_budget; _ } -> ()
        | t ->
          Alcotest.failf "Q%d: expected a tuple-budget trip, got %a" id Core.Engine.pp_termination
            t)
      | Error m -> Alcotest.fail m)
    [ 4; 5 ]

let test_yago_scale_parameter () =
  let small = Yago.generate ~params:{ Yago.scale = 0.002; seed = 1 } () in
  let bigger = Yago.generate ~params:{ Yago.scale = 0.01; seed = 1 } () in
  check Alcotest.bool "scale grows the graph" true
    (Graph.n_nodes (fst bigger) > Graph.n_nodes (fst small))

let () =
  Alcotest.run "datagen"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds and skew" `Quick test_zipf_bounds_and_skew;
          Alcotest.test_case "uniform at alpha 0" `Quick test_zipf_uniform_when_alpha_zero;
          Alcotest.test_case "invalid" `Quick test_zipf_invalid;
        ] );
      ( "l4all",
        [
          Alcotest.test_case "deterministic" `Quick test_l4_deterministic;
          Alcotest.test_case "scaling monotone" `Quick test_l4_scaling_monotone;
          Alcotest.test_case "hierarchy shapes (Fig 2)" `Quick test_l4_hierarchy_shapes;
          Alcotest.test_case "query invariants" `Quick test_l4_query_invariants;
          Alcotest.test_case "invariants survive scaling" `Quick test_l4_query_invariants_scale;
          Alcotest.test_case "type closure materialised" `Quick test_l4_type_closure_materialised;
          Alcotest.test_case "query text" `Quick test_l4_query_text;
          Alcotest.test_case "all 36 queries run" `Slow test_l4_all_queries_parse_and_run;
        ] );
      ( "yago",
        [
          Alcotest.test_case "deterministic" `Quick test_yago_deterministic;
          Alcotest.test_case "structural signature" `Quick test_yago_signature;
          Alcotest.test_case "landmarks" `Quick test_yago_landmarks;
          Alcotest.test_case "query invariants (Fig 10)" `Quick test_yago_query_invariants;
          Alcotest.test_case "RELAX rescues Q5/Q9" `Quick test_yago_relax_rescues;
          Alcotest.test_case "budget aborts Q4/Q5" `Quick test_yago_budget_aborts_q4_q5;
          Alcotest.test_case "scale parameter" `Quick test_yago_scale_parameter;
        ] );
    ]
