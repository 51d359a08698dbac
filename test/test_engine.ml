(* Integration tests for the Omega engine: exact, APPROX and RELAX conjunct
   evaluation, multi-conjunct joins, and the §4.3 optimisations, on small
   hand-built graphs with known answers. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module QP = Core.Query_parser
module Engine = Core.Engine
module Options = Core.Options

let check = Alcotest.check

(* A miniature YAGO-flavoured fixture:

     alice -gradFrom-> birkbeck -locatedIn-> london -locatedIn-> uk
     bob   -gradFrom-> ucl      -locatedIn-> london
     carol -livesIn->  london
     conf  -happenedIn-> london
     alice -marriedTo-> bob
     birkbeck -type-> University ; ucl -type-> University
     ontology: gradFrom sp relationLocatedByObject
               happenedIn sp relationLocatedByObject
               University sc Institution
               gradFrom dom Person, range Institution *)
let fixture () =
  let g = Graph.create () in
  let n = Graph.add_node g in
  let alice = n "alice"
  and bob = n "bob"
  and carol = n "carol"
  and conf = n "conf"
  and birkbeck = n "birkbeck"
  and ucl = n "ucl"
  and london = n "london"
  and uk = n "uk"
  and university = n "University"
  and institution = n "Institution"
  and person = n "Person" in
  ignore person;
  Graph.add_edge_s g alice "gradFrom" birkbeck;
  Graph.add_edge_s g bob "gradFrom" ucl;
  Graph.add_edge_s g birkbeck "locatedIn" london;
  Graph.add_edge_s g ucl "locatedIn" london;
  Graph.add_edge_s g london "locatedIn" uk;
  Graph.add_edge_s g carol "livesIn" london;
  Graph.add_edge_s g conf "happenedIn" london;
  Graph.add_edge_s g alice "marriedTo" bob;
  Graph.add_edge_s g birkbeck "type" university;
  Graph.add_edge_s g ucl "type" university;
  Graph.add_edge_s g birkbeck "type" institution;
  Graph.add_edge_s g ucl "type" institution;
  Graph.add_edge_s g university "type" institution;
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subproperty k "gradFrom" "relationLocatedByObject";
  Ontology.add_subproperty k "happenedIn" "relationLocatedByObject";
  Ontology.add_subclass k "University" "Institution";
  Ontology.add_domain k "gradFrom" "Person";
  Ontology.add_range k "gradFrom" "Institution";
  Graph.freeze g;
  (g, k)

let run ?options ?limit g k s =
  match Engine.run_string ~graph:g ~ontology:k ?options ?limit s with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "query failed to parse: %s" msg

let values var outcome =
  List.map
    (fun (a : Engine.answer) ->
      match List.assoc_opt var a.bindings with
      | Some v -> v
      | None -> Alcotest.failf "missing binding ?%s" var)
    outcome.Engine.answers

let distances outcome = List.map (fun (a : Engine.answer) -> a.Engine.distance) outcome.Engine.answers

let sorted l = List.sort compare l

(* --- exact evaluation ---------------------------------------------------- *)

let test_exact_const_subject () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (alice, gradFrom.locatedIn, ?X)" in
  check (Alcotest.list Alcotest.string) "answers" [ "london" ] (values "X" o);
  check (Alcotest.list Alcotest.int) "distances" [ 0 ] (distances o)

let test_exact_const_object () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (?X, gradFrom.locatedIn.locatedIn, uk)" in
  check (Alcotest.list Alcotest.string) "answers" (sorted [ "alice"; "bob" ])
    (sorted (values "X" o))

let test_exact_star () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (london, locatedIn*, ?X)" in
  check (Alcotest.list Alcotest.string) "answers" (sorted [ "london"; "uk" ])
    (sorted (values "X" o))

let test_exact_plus_vs_star () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (london, locatedIn+, ?X)" in
  check (Alcotest.list Alcotest.string) "answers" [ "uk" ] (values "X" o)

let test_exact_inverse () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (london, locatedIn-, ?X)" in
  check (Alcotest.list Alcotest.string) "answers" (sorted [ "birkbeck"; "ucl" ])
    (sorted (values "X" o))

let test_exact_var_var () =
  let g, k = fixture () in
  let o = run g k "(?X, ?Y) <- (?X, gradFrom, ?Y)" in
  check Alcotest.int "count" 2 (List.length o.Engine.answers)

let test_exact_alternation () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (london, (livesIn-)|(happenedIn-), ?X)" in
  check (Alcotest.list Alcotest.string) "answers" (sorted [ "carol"; "conf" ])
    (sorted (values "X" o))

let test_exact_wildcard () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (uk, _-, ?X)" in
  check (Alcotest.list Alcotest.string) "answers" [ "london" ] (values "X" o)

let test_exact_no_answers () =
  let g, k = fixture () in
  (* only people graduate; UK <-locatedIn- x -gradFrom-> y needs x to be both
     located in the UK and a graduate: no such x (the paper's Example 1) *)
  let o = run g k "(?X) <- (uk, locatedIn-.gradFrom, ?X)" in
  check Alcotest.int "no exact answers" 0 (List.length o.Engine.answers)

let test_unknown_constant () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (nowhere, locatedIn, ?X)" in
  check Alcotest.int "count" 0 (List.length o.Engine.answers)

(* --- APPROX -------------------------------------------------------------- *)

let approx = { Options.default with Options.distance_aware = false }

let test_approx_returns_exact_first () =
  let g, k = fixture () in
  let o = run ~options:approx g k "(?X) <- APPROX (alice, gradFrom.locatedIn, ?X)" in
  match o.Engine.answers with
  | first :: _ ->
    check Alcotest.string "first answer is the exact one" "london"
      (List.assoc "X" first.Engine.bindings);
    check Alcotest.int "at distance 0" 0 first.Engine.distance
  | [] -> Alcotest.fail "no answers"

let test_approx_example2 () =
  (* The paper's Example 2: substituting the last label's direction finds
     answers where the exact query had none. *)
  let g, k = fixture () in
  let o = run ~limit:20 ~options:approx g k "(?X) <- APPROX (uk, locatedIn-.gradFrom, ?X)" in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) o.Engine.answers
  in
  (* The exact query has no answers (test_exact_no_answers); substituting
     gradFrom by a reverse locatedIn step reaches the institutions at
     distance 1, and a further insertion reaches their graduates at 2. *)
  check Alcotest.bool "birkbeck found at distance 1" true (List.mem ("birkbeck", 1) with_dist);
  check Alcotest.bool "a graduate found at distance 2" true
    (List.mem ("alice", 2) with_dist || List.mem ("bob", 2) with_dist)

let test_approx_monotone_distances () =
  let g, k = fixture () in
  let o = run ~limit:50 ~options:approx g k "(?X) <- APPROX (alice, gradFrom, ?X)" in
  let ds = distances o in
  check Alcotest.bool "non-decreasing" true
    (List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < List.length ds - 1) ds)
       (List.tl ds))

let test_approx_deletion () =
  let g, k = fixture () in
  (* deleting 'marriedTo' at cost 1 makes (alice, ε, alice) an answer *)
  let o = run ~limit:50 ~options:approx g k "(?X) <- APPROX (alice, marriedTo, ?X)" in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) o.Engine.answers
  in
  check Alcotest.bool "bob at 0" true (List.mem ("bob", 0) with_dist);
  check Alcotest.bool "alice at 1 (deletion)" true (List.mem ("alice", 1) with_dist)

(* --- RELAX --------------------------------------------------------------- *)

let test_relax_superproperty () =
  let g, k = fixture () in
  (* relationLocatedByObject's closure matches happenedIn as well: conf's
     edge is reached by relaxing gradFrom one step up. *)
  let o = run ~limit:20 g k "(?X) <- RELAX (london, gradFrom-, ?X)" in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) o.Engine.answers
  in
  check Alcotest.bool "conf at distance 1" true (List.mem ("conf", 1) with_dist)

let test_relax_class_ancestors () =
  let g, k = fixture () in
  (* (University, type-, ?X) relaxes University to Institution: the direct
     type edges of Institution appear at distance 1. *)
  let o = run ~limit:20 g k "(?X) <- RELAX (University, type-, ?X)" in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) o.Engine.answers
  in
  check Alcotest.bool "birkbeck at 0" true (List.mem ("birkbeck", 0) with_dist);
  check Alcotest.bool "university at 1 (via Institution)" true
    (List.mem ("University", 1) with_dist)

let test_relax_exact_subset () =
  let g, k = fixture () in
  let exact = run g k "(?X) <- (alice, gradFrom, ?X)" in
  let relaxed = run ~limit:50 g k "(?X) <- RELAX (alice, gradFrom, ?X)" in
  List.iter
    (fun v -> check Alcotest.bool ("exact answer " ^ v ^ " kept") true (List.mem v (values "X" relaxed)))
    (values "X" exact)

let test_relax_rule2_domain () =
  let g, k = fixture () in
  (* gradFrom relaxed by rule (ii): alice -gradFrom-> y becomes
     alice -type-> Person; alice has no type edge, so no extra answer — but
     birkbeck -type-> Institution matches for (birkbeck, gradFrom, ?X)
     relaxation? birkbeck's gradFrom rewritten to type->Person: no.
     Exercise the positive case via range: (?X, gradFrom, birkbeck) reversed
     gives gradFrom- from birkbeck, whose range rewrite is a type edge to
     Institution: birkbeck -type-> Institution exists, so Institution
     appears at distance gamma = 1. *)
  let o = run ~limit:50 g k "(?X) <- RELAX (?X, gradFrom, birkbeck)" in
  ignore o;
  let o2 = run ~limit:50 g k "(?Y) <- RELAX (birkbeck, gradFrom-, ?Y)" in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "Y" a.Engine.bindings, a.Engine.distance)) o2.Engine.answers
  in
  check Alcotest.bool "alice at 0" true (List.mem ("alice", 0) with_dist);
  check Alcotest.bool "Institution at 1 (rule ii)" true (List.mem ("Institution", 1) with_dist)

(* --- multi-conjunct ------------------------------------------------------ *)

let test_join_two_conjuncts () =
  let g, k = fixture () in
  let o = run g k "(?X, ?Y) <- (?X, gradFrom, ?Y), (?Y, locatedIn, london)" in
  check Alcotest.int "two graduates" 2 (List.length o.Engine.answers)

let test_join_projection_dedup () =
  let g, k = fixture () in
  let o = run g k "(?Y) <- (?X, gradFrom, ?Y), (?Y, locatedIn, london)" in
  check Alcotest.int "two institutions" 2 (List.length o.Engine.answers)

let test_join_total_distance () =
  let g, k = fixture () in
  let o =
    run ~limit:10 g k "(?X) <- APPROX (alice, marriedTo, ?X), APPROX (?X, gradFrom, ucl)"
  in
  match o.Engine.answers with
  | first :: _ ->
    check Alcotest.string "bob" "bob" (List.assoc "X" first.Engine.bindings);
    check Alcotest.int "total 0" 0 first.Engine.distance
  | [] -> Alcotest.fail "no answers"

(* --- optimisations ------------------------------------------------------- *)

let test_distance_aware_same_answers () =
  let g, k = fixture () in
  let q = "(?X) <- APPROX (uk, locatedIn-.gradFrom, ?X)" in
  let plain = run ~limit:10 ~options:approx g k q in
  let da = run ~limit:10 ~options:{ approx with Options.distance_aware = true } g k q in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "same ranked answers"
    (List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) plain.Engine.answers
    |> sorted)
    (List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) da.Engine.answers
    |> sorted)

let test_decompose_same_answers () =
  let g, k = fixture () in
  let q = "(?X) <- APPROX (london, (livesIn-)|(happenedIn-), ?X)" in
  let plain = run ~limit:10 ~options:approx g k q in
  let dec = run ~limit:10 ~options:{ approx with Options.decompose = true } g k q in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "same ranked answers"
    (List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) plain.Engine.answers
    |> sorted)
    (List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) dec.Engine.answers
    |> sorted)

let test_budget_aborts () =
  let g, k = fixture () in
  let o =
    run
      ~options:{ approx with Options.max_tuples = Some 5 }
      g k "(?X, ?Y) <- APPROX (?X, gradFrom, ?Y)"
  in
  match o.Engine.termination with
  | Engine.Exhausted { reason = Core.Governor.Tuple_budget; _ } -> ()
  | t -> Alcotest.failf "expected a tuple-budget trip, got %a" Core.Engine.pp_termination t

(* --- governor ------------------------------------------------------- *)

(* Regression: [Engine.next] used to raise an exception when [max_tuples]
   ran out mid-stream; it must return [None] and report the trip through
   [Engine.status]. *)
let test_next_never_raises_on_budget () =
  let g, k = fixture () in
  let q =
    match Core.Query_parser.parse_result "(?X, ?Y) <- APPROX (?X, gradFrom, ?Y)" with
    | Ok q -> q
    | Error m -> Alcotest.fail m
  in
  let st =
    Engine.open_query ~graph:g ~ontology:k
      ~options:{ approx with Options.max_tuples = Some 5 }
      q
  in
  let rec drain n = match Engine.next st with Some _ -> drain (n + 1) | None -> n in
  let emitted = drain 0 in
  match Engine.status st with
  | Engine.Exhausted { reason = Core.Governor.Tuple_budget; answers; _ } ->
    check Alcotest.int "termination counts the emitted answers" emitted answers
  | t -> Alcotest.failf "expected a tuple-budget trip, got %a" Core.Engine.pp_termination t

(* Pins the documented semantics of [Options.max_tuples] under
   distance-aware evaluation: the budget is CUMULATIVE across psi-level
   restarts, not per restart.  The clean run needs P pushes spread over
   several restarts (each restart re-seeds, so every level pushes at least
   once and no single level reaches P - 1); a budget of P - 1 must
   therefore trip, while P must not — a per-restart budget would pass
   P - 1 untripped. *)
let test_budget_cumulative_across_restarts () =
  let g, k = fixture () in
  let q = "(?X) <- APPROX (uk, locatedIn-.gradFrom, ?X)" in
  let da = { approx with Options.distance_aware = true } in
  let clean = run ~options:da g k q in
  check Alcotest.bool "clean run completes" true (clean.Engine.termination = Engine.Completed);
  let p = clean.Engine.stats.Core.Exec_stats.pushes in
  let r = clean.Engine.stats.Core.Exec_stats.restarts in
  check Alcotest.bool "several psi levels ran" true (r >= 2);
  let tripped = run ~options:{ da with Options.max_tuples = Some (p - 1) } g k q in
  (match tripped.Engine.termination with
  | Engine.Exhausted { reason = Core.Governor.Tuple_budget; _ } -> ()
  | t ->
    Alcotest.failf "budget P-1 must trip across restarts, got %a" Core.Engine.pp_termination t);
  let fits = run ~options:{ da with Options.max_tuples = Some p } g k q in
  check Alcotest.bool "budget P completes" true (fits.Engine.termination = Engine.Completed)

(* [limit] is enforced through the governor's answer cap: reaching it is an
   [Answer_limit] termination. *)
let test_answer_limit_termination () =
  let g, k = fixture () in
  let o = run ~limit:1 g k "(?X) <- (london, locatedIn-, ?X)" in
  check Alcotest.int "exactly the limit" 1 (List.length o.Engine.answers);
  match o.Engine.termination with
  | Engine.Exhausted { reason = Core.Governor.Answer_limit; answers = 1; _ } -> ()
  | t -> Alcotest.failf "expected Answer_limit, got %a" Core.Engine.pp_termination t

(* A trip's elapsed time is printed only when a clock measured it: with
   none installed every [elapsed_ns] reads 0, and "0.00 ms" would be made
   up. *)
let test_termination_time_needs_clock () =
  let t =
    Engine.Exhausted
      { reason = Core.Governor.Answer_limit; elapsed_ns = 1_500_000; tuples = 7; answers = 1 }
  in
  let show () = Format.asprintf "%a" Engine.pp_termination t in
  Obs.Clock.uninstall ();
  check Alcotest.string "no clock: no time" "exhausted (answer-limit) after 1 answer(s), 7 tuple(s)"
    (show ());
  Fun.protect ~finally:Obs.Clock.uninstall (fun () ->
      Obs.Clock.install (fun () -> 0);
      check Alcotest.string "clock installed: the time"
        "exhausted (answer-limit) after 1 answer(s), 7 tuple(s), 1.50 ms" (show ()))

(* --- edge cases ----------------------------------------------------- *)

let test_const_const () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (alice, gradFrom, birkbeck), (alice, marriedTo, ?X)" in
  check (Alcotest.list Alcotest.string) "satisfied anchor" [ "bob" ] (values "X" o);
  let o = run g k "(?X) <- (alice, gradFrom, ucl), (alice, marriedTo, ?X)" in
  check Alcotest.int "unsatisfied anchor kills the query" 0 (List.length o.Engine.answers)

let test_same_variable () =
  let g, k = fixture () in
  (* (?X, R, ?X): only nodes with a loop path; none exist exactly, but the
     empty path via a star matches every node *)
  let o = run g k "(?X) <- (?X, locatedIn, ?X)" in
  check Alcotest.int "no locatedIn self-loops" 0 (List.length o.Engine.answers);
  let o = run g k "(?X) <- (?X, locatedIn*, ?X)" in
  check Alcotest.int "every node via the empty path" 11 (List.length o.Engine.answers)

let test_epsilon_regex () =
  let g, k = fixture () in
  let o = run g k "(?X, ?Y) <- (?X, <eps>, ?Y)" in
  check Alcotest.int "identity pairs only" 11 (List.length o.Engine.answers);
  List.iter
    (fun (a : Engine.answer) ->
      check Alcotest.string "X = Y"
        (List.assoc "X" a.Engine.bindings)
        (List.assoc "Y" a.Engine.bindings))
    o.Engine.answers

let test_star_includes_identity () =
  let g, k = fixture () in
  let o = run g k "(?X, ?Y) <- (?X, locatedIn*, ?Y)" in
  (* 11 identity pairs + birkbeck/ucl/london chains:
     birkbeck->london->uk (2), ucl->london->uk (2), london->uk (1) *)
  check Alcotest.int "identity + chains" 16 (List.length o.Engine.answers)

let test_relax_non_class_constant () =
  let g, k = fixture () in
  (* alice is not a class: RELAX seeding degrades to the plain seed *)
  let exact = run g k "(?X) <- (alice, gradFrom, ?X)" in
  let relaxed = run ~limit:50 g k "(?X) <- RELAX (alice, gradFrom, ?X)" in
  check Alcotest.bool "exact subset kept" true
    (List.for_all (fun v -> List.mem v (values "X" relaxed)) (values "X" exact))

let test_three_conjunct_chain () =
  let g, k = fixture () in
  let o =
    run g k "(?A, ?C) <- (?A, gradFrom, ?B), (?B, locatedIn, ?C), (?C, locatedIn, uk)"
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "both graduates resolve through london"
    [ ("alice", "london"); ("bob", "london") ]
    (sorted
       (List.map
          (fun (a : Engine.answer) ->
            (List.assoc "A" a.Engine.bindings, List.assoc "C" a.Engine.bindings))
          o.Engine.answers))

let test_limit_semantics () =
  let g, k = fixture () in
  let o = run ~limit:1 g k "(?X) <- (london, locatedIn-, ?X)" in
  check Alcotest.int "exactly the limit" 1 (List.length o.Engine.answers)

let test_custom_costs_change_ranking () =
  let g, k = fixture () in
  (* cheap deletions: the deletion repair (alice herself) must rank at the
     deletion cost, below any substitution *)
  let costs = { Options.default_costs with Options.del = 1; sub = 5; ins = 5 } in
  let o =
    run ~limit:30 ~options:{ Options.default with Options.costs } g k
      "(?X) <- APPROX (alice, marriedTo, ?X)"
  in
  let with_dist =
    List.map (fun (a : Engine.answer) -> (List.assoc "X" a.Engine.bindings, a.Engine.distance)) o.Engine.answers
  in
  check Alcotest.bool "deletion at cost 1" true (List.mem ("alice", 1) with_dist);
  check Alcotest.bool "no substitution below 5" true
    (List.for_all (fun (v, d) -> v = "alice" || v = "bob" || d >= 5) with_dist)

let test_invalid_query_rejected () =
  let g, k = fixture () in
  match Engine.run_string ~graph:g ~ontology:k "(?Z) <- (alice, gradFrom, ?X)" with
  | Ok _ -> Alcotest.fail "head variable not in body must be rejected"
  | Error _ -> ()

let test_binding_order_follows_head () =
  let g, k = fixture () in
  let o = run g k "(?Y, ?X) <- (?X, gradFrom, ?Y)" in
  match o.Engine.answers with
  | a :: _ ->
    check (Alcotest.list Alcotest.string) "head order" [ "Y"; "X" ] (List.map fst a.Engine.bindings)
  | [] -> Alcotest.fail "expected answers"

let test_stats_populated () =
  let g, k = fixture () in
  let o = run g k "(?X) <- (alice, gradFrom.locatedIn, ?X)" in
  check Alcotest.bool "pushes counted" true (o.Engine.stats.Core.Exec_stats.pushes > 0);
  check Alcotest.bool "pops counted" true (o.Engine.stats.Core.Exec_stats.pops > 0);
  check Alcotest.int "answers counted" 1 o.Engine.stats.Core.Exec_stats.answers

(* --- unknown object constants --------------------------------------------- *)

module R = Rpq_regex.Regex
module Evaluator = Core.Evaluator

let drain ev =
  let rec loop acc =
    match Evaluator.next ev with Some a -> loop (a :: acc) | None -> List.rev acc
  in
  loop []

(* Regression: a conjunct whose object constant names no node used to get a
   [-1] target annotation while keeping its seeds, so the whole reachable
   product was explored for an answer that can never exist (oids are dense
   non-negative ints, so the sentinel cannot collide with a real node).  It
   must terminate immediately — zero seeds, zero D_R pushes — under every
   evaluation strategy and flexible mode. *)
let test_unknown_object_terminates () =
  let g, k = fixture () in
  let regex = R.alt (R.lbl "gradFrom") (R.lbl "marriedTo") in
  List.iter
    (fun mode ->
      List.iter
        (fun options ->
          let conjunct = Q.conjunct ~mode (Q.Const "alice") regex (Q.Const "nowhere") in
          let ev = Evaluator.create ~graph:g ~ontology:k ~options conjunct in
          check Alcotest.int "no answers" 0 (List.length (drain ev));
          let s = Evaluator.stats ev in
          check Alcotest.int "no seeds" 0 s.Core.Exec_stats.seeds;
          check Alcotest.int "no pushes" 0 s.Core.Exec_stats.pushes)
        [
          Options.default;
          { Options.default with Options.distance_aware = true };
          { Options.default with Options.decompose = true };
        ])
    [ Q.Exact; Q.Approx; Q.Relax ]

let test_unknown_object_in_queries () =
  let g, k = fixture () in
  (* anchored join: the ghost anchor kills the whole query *)
  let o = run g k "(?X) <- (alice, gradFrom, nowhere), (alice, marriedTo, ?X)" in
  check Alcotest.int "ghost anchor kills the join" 0 (List.length o.Engine.answers);
  (* case-2 rewrite: the ghost object becomes an unknown subject constant *)
  let o = run g k "(?X) <- (?X, gradFrom, nowhere)" in
  check Alcotest.int "ghost object after reversal" 0 (List.length o.Engine.answers)

(* --- level reordering under decomposition ---------------------------------- *)

(* Decomposed evaluation re-runs the parts of a top-level alternation level
   by level, reordering them at each level boundary by increasing answer
   count of the previous level (§4.3).  Two disconnected families make the
   reorder observable: the a-branch holds three exact answers, the b-branch
   one, so parts open in syntactic order [a; b] at level 0 and must swap to
   [b; a] at level 1 — the first edit-distance-1 emission has to come from
   the b-chain. *)
let test_decompose_reorders_parts () =
  let g = Graph.create () in
  let n = Graph.add_node g in
  let a = Array.init 9 (fun i -> n (Printf.sprintf "a%d" i)) in
  let b = Array.init 3 (fun i -> n (Printf.sprintf "b%d" i)) in
  List.iter
    (fun i ->
      Graph.add_edge_s g a.((3 * i)) "a" a.((3 * i) + 1);
      Graph.add_edge_s g a.((3 * i) + 1) "a" a.((3 * i) + 2))
    [ 0; 1; 2 ];
  Graph.add_edge_s g b.(0) "b" b.(1);
  Graph.add_edge_s g b.(1) "b" b.(2);
  Graph.freeze g;
  let k = Ontology.create (Graph.interner g) in
  let conjunct =
    Q.conjunct ~mode:Q.Approx (Q.Var "X")
      (R.alt (R.seq (R.lbl "a") (R.lbl "a")) (R.seq (R.lbl "b") (R.lbl "b")))
      (Q.Var "Y")
  in
  let options = { Options.default with Options.decompose = true } in
  let ev = Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let answers = drain ev in
  let in_family fam (ans : Core.Conjunct.answer) = Array.exists (fun o -> o = ans.x) fam in
  let exact = List.filter (fun (ans : Core.Conjunct.answer) -> ans.dist = 0) answers in
  check Alcotest.int "exact answers" 4 (List.length exact);
  (match answers with
  | first :: _ ->
    check Alcotest.bool "level 0 runs the a-branch first (syntactic order)" true
      (in_family a first)
  | [] -> Alcotest.fail "expected answers");
  (match List.find_opt (fun (ans : Core.Conjunct.answer) -> ans.dist = 1) answers with
  | Some promoted ->
    check Alcotest.bool "level 1 runs the b-branch first (fewest answers)" true
      (in_family b promoted)
  | None -> Alcotest.fail "expected distance-1 answers");
  (* the promoted b-part drains completely before the a-part reopens: every
     b-family answer of the level precedes every a-family one *)
  let at_1 = List.filter (fun (ans : Core.Conjunct.answer) -> ans.dist = 1) answers in
  check Alcotest.bool "some b-pairs at distance 1" true (List.exists (in_family b) at_1);
  let rec b_prefix_then_a = function
    | x :: rest when in_family b x -> b_prefix_then_a rest
    | rest -> not (List.exists (in_family b) rest)
  in
  check Alcotest.bool "whole b-part drains first" true (b_prefix_then_a at_1);
  (* every level boundary re-opened both parts: at least levels 0 and 1 *)
  let s = Evaluator.stats ev in
  check Alcotest.bool "level restarts recorded" true (s.Core.Exec_stats.restarts >= 4)

let () =
  Alcotest.run "engine"
    [
      ( "exact",
        [
          Alcotest.test_case "constant subject" `Quick test_exact_const_subject;
          Alcotest.test_case "constant object (reversal)" `Quick test_exact_const_object;
          Alcotest.test_case "star closure" `Quick test_exact_star;
          Alcotest.test_case "plus excludes start" `Quick test_exact_plus_vs_star;
          Alcotest.test_case "inverse traversal" `Quick test_exact_inverse;
          Alcotest.test_case "var-var conjunct" `Quick test_exact_var_var;
          Alcotest.test_case "alternation" `Quick test_exact_alternation;
          Alcotest.test_case "wildcard" `Quick test_exact_wildcard;
          Alcotest.test_case "example 1: zero answers" `Quick test_exact_no_answers;
          Alcotest.test_case "unknown constant" `Quick test_unknown_constant;
        ] );
      ( "approx",
        [
          Alcotest.test_case "exact answers first" `Quick test_approx_returns_exact_first;
          Alcotest.test_case "example 2: substitution" `Quick test_approx_example2;
          Alcotest.test_case "monotone distances" `Quick test_approx_monotone_distances;
          Alcotest.test_case "deletion edit" `Quick test_approx_deletion;
        ] );
      ( "relax",
        [
          Alcotest.test_case "super-property closure" `Quick test_relax_superproperty;
          Alcotest.test_case "class ancestors" `Quick test_relax_class_ancestors;
          Alcotest.test_case "exact answers kept" `Quick test_relax_exact_subset;
          Alcotest.test_case "rule (ii) range rewrite" `Quick test_relax_rule2_domain;
        ] );
      ( "join",
        [
          Alcotest.test_case "two conjuncts" `Quick test_join_two_conjuncts;
          Alcotest.test_case "projection dedup" `Quick test_join_projection_dedup;
          Alcotest.test_case "total distance ranking" `Quick test_join_total_distance;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "constant-constant conjunct" `Quick test_const_const;
          Alcotest.test_case "same variable twice" `Quick test_same_variable;
          Alcotest.test_case "epsilon regex" `Quick test_epsilon_regex;
          Alcotest.test_case "star includes identity" `Quick test_star_includes_identity;
          Alcotest.test_case "relax non-class constant" `Quick test_relax_non_class_constant;
          Alcotest.test_case "three-conjunct chain" `Quick test_three_conjunct_chain;
          Alcotest.test_case "limit semantics" `Quick test_limit_semantics;
          Alcotest.test_case "custom costs change ranking" `Quick test_custom_costs_change_ranking;
          Alcotest.test_case "invalid query rejected" `Quick test_invalid_query_rejected;
          Alcotest.test_case "binding order follows head" `Quick test_binding_order_follows_head;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "unknown object terminates" `Quick test_unknown_object_terminates;
          Alcotest.test_case "unknown object in queries" `Quick test_unknown_object_in_queries;
        ] );
      ( "optimisations",
        [
          Alcotest.test_case "distance-aware equivalence" `Quick test_distance_aware_same_answers;
          Alcotest.test_case "decomposition equivalence" `Quick test_decompose_same_answers;
          Alcotest.test_case "decomposition reorders parts" `Quick test_decompose_reorders_parts;
          Alcotest.test_case "tuple budget aborts" `Quick test_budget_aborts;
        ] );
      ( "governor",
        [
          Alcotest.test_case "next never raises on budget" `Quick test_next_never_raises_on_budget;
          Alcotest.test_case "budget is cumulative across restarts" `Quick
            test_budget_cumulative_across_restarts;
          Alcotest.test_case "limit reports Answer_limit" `Quick test_answer_limit_termination;
          Alcotest.test_case "termination prints no time without a clock" `Quick
            test_termination_time_needs_clock;
        ] );
    ]
