(* Tests of the benchmark's own statistics, spans, digests and seeded
   operation sequences. *)

module S = Perfbench.Stats
module Sp = Perfbench.Spans
module D = Perfbench.Answer_digest
module W = Perfbench.Workloads

(* ---- the tail rule ---- *)

let tail_has_ten_beyond () =
  for n = 20 to 5000 do
    let p = S.tail_percentile n in
    if S.beyond ~n p < 10 then Alcotest.failf "n=%d: p%g has %d beyond" n p (S.beyond ~n p);
    (* and it is the highest such ladder step *)
    List.iter
      (fun q -> if q > p && S.beyond ~n q >= 10 then Alcotest.failf "n=%d: p%g also has 10 beyond" n q)
      S.ladder
  done

let tail_examples () =
  Alcotest.(check (float 0.)) "1000 samples read p99" 99. (S.tail_percentile 1000);
  Alcotest.(check (float 0.)) "100 samples read p90" 90. (S.tail_percentile 100);
  Alcotest.(check (float 0.)) "50 samples read p80" 80. (S.tail_percentile 50);
  Alcotest.(check (float 0.)) "too few fall back to the median" 50. (S.tail_percentile 5);
  let samples = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let t = S.tail samples in
  Alcotest.(check (float 1.)) "p99 of 0..999" 989. t.value;
  Alcotest.(check int) "samples beyond" 10 t.beyond;
  Alcotest.(check int) "samples really beyond the value" 10
    (Array.fold_left (fun acc x -> if x > t.value then acc + 1 else acc) 0 samples)

let quantiles () =
  Alcotest.(check (float 0.)) "median of an even count" 2.5 (S.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "median of an odd count" 3. (S.median [| 5.; 3.; 1. |]);
  Alcotest.(check (float 1e-12)) "interpolated quartile" 1.75 (S.quantile [| 1.; 2.; 3.; 4. |] 0.25)

let harrell_davis () =
  (* n = 5, q = 0.5: weights from Beta(3, 3) over fifths *)
  let xs = [| 50.; 2.; 10.; 1.; 3. |] in
  Alcotest.(check (float 1e-9)) "median of five" 7.16352 (S.harrell_davis xs 0.5);
  Alcotest.(check (float 1e-6)) "p90 of five" 43.3454361 (S.harrell_davis xs 0.9);
  Alcotest.(check (float 1e-12)) "I_x(a, 1) = x^a" (0.8 ** 5.4) (S.incomplete_beta 5.4 1. 0.8);
  Alcotest.(check (float 1e-9)) "symmetric samples: the centre" 2.5 (S.harrell_davis [| 1.; 2.; 3.; 4. |] 0.5);
  Alcotest.(check (float 1e-9)) "constant samples" 7. (S.harrell_davis (Array.make 101 7.) 0.5);
  (* two classes with a gap at the median: swapping the two middle samples
     moves a plain median across the gap, this estimate by a little *)
  let mix top = Array.append (Array.make 50 1.) (Array.append [| top |] (Array.make 49 10.)) in
  let a = S.harrell_davis (mix 1.) 0.5 and b = S.harrell_davis (mix 10.) 0.5 in
  Alcotest.(check bool) "smooth across a gap" true (Float.abs (a -. b) < 1.)

(* ---- self time ---- *)

let span id parent start_ns stop_ns = { Sp.id; parent; op = 0; name = string_of_int id; start_ns; stop_ns }

let self_of spans id = List.assoc id (List.map (fun (s, self) -> (s.Sp.id, self)) (Sp.self_times spans))

let self_time_is_duration_minus_children () =
  let spans = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 40 70; span 3 2 45 50 ] in
  Alcotest.(check int) "root" 50 (self_of spans 0);
  Alcotest.(check int) "leaf" 20 (self_of spans 1);
  Alcotest.(check int) "inner" 25 (self_of spans 2);
  Alcotest.(check int) "grandchild" 5 (self_of spans 3);
  Alcotest.(check int) "self times sum to the root's duration" 100
    (List.fold_left (fun acc (_, self) -> acc + self) 0 (Sp.self_times spans));
  Alcotest.(check int) "consistent" 0 (List.length (Sp.inconsistent_roots spans))

let overlapping_children_count_once () =
  let spans = [ span 0 (-1) 0 100; span 1 0 10 60; span 2 0 40 70 ] in
  Alcotest.(check int) "root self time" 40 (self_of spans 0);
  Alcotest.(check int) "overlapping siblings break the sum" 1 (List.length (Sp.inconsistent_roots spans))

let recorded_spans_nest () =
  let clock = ref 0 in
  let tick () =
    clock := !clock + 7;
    !clock
  in
  let tr = Sp.create tick in
  Sp.record tr ~op:3 "root" (fun root ->
      Sp.record tr ~op:3 ~parent:root "a" (fun _ -> ());
      Sp.record tr ~op:3 ~parent:root "b" (fun id -> Sp.record tr ~op:3 ~parent:id "c" (fun _ -> ())));
  let spans = Sp.spans tr in
  Alcotest.(check (list string)) "recorded in completion order" [ "a"; "c"; "b"; "root" ]
    (List.map (fun s -> s.Sp.name) spans);
  Alcotest.(check int) "consistent" 0 (List.length (Sp.inconsistent_roots spans));
  let root = List.find (fun s -> s.Sp.name = "root") spans in
  Alcotest.(check int) "self times sum to the root's duration" (Sp.duration root)
    (List.fold_left (fun acc (_, self) -> acc + self) 0 (Sp.self_times spans))

(* ---- digests ---- *)

let a = ([ ("X", "Alumni 1 Episode 1_1") ], 0)
let b = ([ ("X", "Alumni 2 Episode 1_1") ], 1)

let digest_is_order_sensitive () =
  Alcotest.(check bool) "swapping two answers changes it" true (D.of_answers [ a; b ] <> D.of_answers [ b; a ]);
  Alcotest.(check string) "same stream, same digest" (D.of_answers [ a; b ]) (D.of_answers [ a; b ]);
  Alcotest.(check bool) "the distance is part of it" true (D.of_answers [ a ] <> D.of_answers [ (fst a, 1) ]);
  Alcotest.(check bool) "binding boundaries are part of it" true
    (D.of_answers [ ([ ("X", "ab") ], 0) ] <> D.of_answers [ ([ ("Xa", "b") ], 0) ])

let ranked_prefix () =
  let x l d = ([ ("X", l) ], d) in
  let reference = [ x "p" 0; x "q" 1; x "r" 1; x "s" 1 ] in
  Alcotest.(check bool) "a cut inside the tied distance may pick any" true
    (D.is_ranked_prefix ~reference [ x "p" 0; x "s" 1; x "q" 1 ]);
  Alcotest.(check bool) "missing a lower-distance answer" false (D.is_ranked_prefix ~reference [ x "q" 1; x "r" 1 ]);
  Alcotest.(check bool) "an answer the reference lacks" false (D.is_ranked_prefix ~reference [ x "p" 0; x "z" 1 ]);
  Alcotest.(check bool) "decreasing distance" false (D.is_ranked_prefix ~reference [ x "q" 1; x "p" 0 ])

(* ---- seeded sequences ---- *)

let strata =
  [
    { W.name = "u"; constants = [| "a"; "b"; "c"; "d" |]; instantiate = (fun c -> "u:" ^ c); draw = W.Uniform 6 };
    { W.name = "z"; constants = [| "e"; "f"; "g" |]; instantiate = (fun c -> "z:" ^ c); draw = W.Zipf 5 };
    { W.name = "one"; constants = [| "h"; "i" |]; instantiate = (fun c -> "one:" ^ c); draw = W.Uniform 2 };
  ]

let texts ops = Array.to_list (Array.map (fun op -> op.W.text) ops)

let sequence ~seed ~passes:n strata =
  let next = W.passes ~seed ~passes:n strata in
  Array.concat (List.init n (fun _ -> next ()))

let same_seed_same_sequence () =
  let s1 = sequence ~seed:42 ~passes:3 strata and s2 = sequence ~seed:42 ~passes:3 strata in
  Alcotest.(check (list string)) "identical" (texts s1) (texts s2);
  Alcotest.(check int) "13 operations a pass" 39 (Array.length s1)

let seeds_differ () =
  Alcotest.(check bool) "two seeds, two sequences" true
    (texts (sequence ~seed:1 ~passes:2 strata) <> texts (sequence ~seed:2 ~passes:2 strata))

let strata_counts_are_fixed () =
  List.iter
    (fun seed ->
      let ops = sequence ~seed ~passes:1 strata in
      let count name = Array.fold_left (fun acc op -> if op.W.stratum = name then acc + 1 else acc) 0 ops in
      Alcotest.(check (list int)) "per-stratum counts" [ 6; 5; 2 ] [ count "u"; count "z"; count "one" ])
    [ 1; 2; 3 ]

let zipf_draws_follow_exact_counts () =
  (* 5 draws a pass over 3 ranks, 2 passes: 10 x (1, 1/2, 1/3) / (11/6)
     = 5.45, 2.73, 1.82, rounded by largest remainder to 5, 3, 2 *)
  Alcotest.(check (array int)) "counts" [| 5; 3; 2 |] (W.zipf_counts ~n:3 ~m:10);
  List.iter
    (fun seed ->
      let ops = sequence ~seed ~passes:2 strata in
      let count c = Array.fold_left (fun acc op -> if op.W.text = "z:" ^ c then acc + 1 else acc) 0 ops in
      Alcotest.(check (list int)) "draws per constant" [ 5; 3; 2 ] (List.map count [ "e"; "f"; "g" ]))
    [ 1; 2; 3 ]

let uniform_draws_are_even () =
  List.iter
    (fun seed ->
      let ops = sequence ~seed ~passes:2 strata in
      List.iter
        (fun c ->
          let n = Array.fold_left (fun acc op -> if op.W.text = "u:" ^ c then acc + 1 else acc) 0 ops in
          Alcotest.(check int) ("draws of " ^ c) 3 n)
        [ "a"; "b"; "c"; "d" ])
    [ 1; 2; 3 ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let catalogue_covers_draws () =
  let graph, ontology = Datagen.L4all.generate_scale Datagen.L4all.L1 in
  let strata = W.flex_topk graph ontology in
  let catalogue = List.concat_map (fun s -> Array.to_list (Array.map s.W.instantiate s.W.constants)) strata in
  let ops = sequence ~seed:5 ~passes:2 strata in
  Array.iter
    (fun op -> if not (List.mem op.W.text catalogue) then Alcotest.failf "drawn outside the catalogue: %s" op.W.text)
    ops;
  List.iter
    (fun paper ->
      if not (List.exists (fun t -> contains t ("(" ^ paper ^ ",")) catalogue) then
        Alcotest.failf "paper constant %s missing" paper)
    [ "Work Episode"; "Information Systems"; "Software Professionals"; "Mathematical and Computer Sciences";
      "Alumni 4 Episode 1_1"; "Librarians"; "BTEC Introductory Diploma" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile keeps ten samples beyond" `Quick tail_has_ten_beyond;
          Alcotest.test_case "tail examples" `Quick tail_examples;
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "Harrell-Davis quantiles" `Quick harrell_davis;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time is duration minus children" `Quick self_time_is_duration_minus_children;
          Alcotest.test_case "overlapping children count once" `Quick overlapping_children_count_once;
          Alcotest.test_case "recorded spans nest" `Quick recorded_spans_nest;
        ] );
      ( "digest",
        [
          Alcotest.test_case "order-sensitive" `Quick digest_is_order_sensitive;
          Alcotest.test_case "ranked prefix" `Quick ranked_prefix;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "same seed, same sequence" `Quick same_seed_same_sequence;
          Alcotest.test_case "different seeds differ" `Quick seeds_differ;
          Alcotest.test_case "per-stratum counts are fixed" `Quick strata_counts_are_fixed;
          Alcotest.test_case "uniform draws cover the catalogue evenly" `Quick uniform_draws_are_even;
          Alcotest.test_case "Zipf draws follow exact counts" `Quick zipf_draws_follow_exact_counts;
          Alcotest.test_case "draws stay in the catalogue" `Quick catalogue_covers_draws;
        ] );
    ]
