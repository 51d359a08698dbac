(* Tests for static admission control: the pre-flight cost estimate, the
   vetting rules, and the engine/CLI surface of a rejection. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module R = Rpq_regex.Regex
module Admission = Core.Admission
module Options = Core.Options
module Engine = Core.Engine

let check = Alcotest.check

(* A small diamond graph: 6 nodes, edges labelled p/q. *)
let fixture () =
  let g = Graph.create () in
  let n = Array.init 6 (fun i -> Graph.add_node g (Printf.sprintf "n%d" i)) in
  Graph.add_edge_s g n.(0) "p" n.(1);
  Graph.add_edge_s g n.(0) "q" n.(2);
  Graph.add_edge_s g n.(1) "p" n.(3);
  Graph.add_edge_s g n.(2) "q" n.(3);
  Graph.add_edge_s g n.(3) "p" n.(4);
  Graph.add_edge_s g n.(4) "q" n.(5);
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subclass k "C0" "C1";
  Graph.freeze g;
  (g, k)

let estimate ?(options = Options.default) q =
  let g, k = fixture () in
  Admission.estimate ~graph:g (Core.Plan.of_query ~graph:g ~ontology:k ~options q)

let vet ~options q =
  let g, k = fixture () in
  Admission.vet ~graph:g ~options (Core.Plan.of_query ~graph:g ~ontology:k ~options q)

(* --- the estimate ----------------------------------------------------- *)

let test_seed_estimates () =
  (* variable subject: every node is a potential seed *)
  let var = estimate (Q.single (Q.Var "X") (R.lbl "p") (Q.Var "Y")) in
  let c = List.hd var.Admission.per_conjunct in
  check Alcotest.int "variable subject seeds |V_G|" 6 c.Admission.seed_est;
  check Alcotest.int "product = states * seeds" (c.Admission.states * 6) c.Admission.product_est;
  (* known constant subject: exactly one seed *)
  let const = estimate (Q.single (Q.Const "n0") (R.lbl "p") (Q.Var "Y")) in
  check Alcotest.int "known constant seeds 1" 1
    (List.hd const.Admission.per_conjunct).Admission.seed_est;
  (* unknown constant: the seed set is empty, and so is the product *)
  let ghost = estimate (Q.single (Q.Const "no-such-node") (R.lbl "p") (Q.Var "Y")) in
  let gc = List.hd ghost.Admission.per_conjunct in
  check Alcotest.int "unknown constant seeds 0" 0 gc.Admission.seed_est;
  check Alcotest.int "empty seed set, empty product" 0 gc.Admission.product_est;
  (* case-2 reversal: a constant OBJECT seeds from the constant too *)
  let rev = estimate (Q.single (Q.Var "X") (R.lbl "p") (Q.Const "n5")) in
  check Alcotest.int "constant object seeds 1 (reversed)" 1
    (List.hd rev.Admission.per_conjunct).Admission.seed_est

let test_expansion_grows_states () =
  let exact = estimate (Q.single (Q.Var "X") (R.lbl "p") (Q.Var "Y")) in
  let approx = estimate (Q.single ~mode:Q.Approx (Q.Var "X") (R.lbl "p") (Q.Var "Y")) in
  let s_of e = (List.hd e.Admission.per_conjunct).Admission.states in
  let t_of e = (List.hd e.Admission.per_conjunct).Admission.transitions in
  check Alcotest.bool "APPROX expansion adds transitions" true (t_of approx > t_of exact);
  check Alcotest.bool "states estimated for both" true (s_of exact > 0 && s_of approx >= s_of exact)

let test_totals_and_arity () =
  let c1 = Q.conjunct (Q.Var "X") (R.lbl "p") (Q.Var "Y") in
  let c2 = Q.conjunct (Q.Var "Y") (R.lbl "q") (Q.Var "Z") in
  let e = estimate (Q.make ~head:[ "X"; "Z" ] [ c1; c2 ]) in
  check Alcotest.int "join arity" 2 e.Admission.join_arity;
  check Alcotest.int "total states sums conjuncts"
    (List.fold_left (fun acc c -> acc + c.Admission.states) 0 e.Admission.per_conjunct)
    e.Admission.total_states;
  check Alcotest.int "total product sums conjuncts"
    (List.fold_left (fun acc c -> acc + c.Admission.product_est) 0 e.Admission.per_conjunct)
    e.Admission.total_product_est

(* --- vetting ---------------------------------------------------------- *)

let test_vet_rules () =
  let q = Q.single ~mode:Q.Approx (Q.Var "X") (R.star (R.lbl "p")) (Q.Var "Y") in
  (* no limits: everything is admitted *)
  let _, r = vet ~options:Options.default q in
  check Alcotest.bool "no limits admit" true (r = None);
  (* per-conjunct state limit: first offender reported with its index *)
  let _, r = vet ~options:{ Options.default with Options.max_states = Some 1 } q in
  (match r with
  | Some { Admission.kind = Admission.Max_states; limit = 1; conjunct = Some 1; actual; _ } ->
    check Alcotest.bool "actual over limit" true (actual > 1)
  | _ -> Alcotest.fail "expected a max-states rejection for conjunct 1");
  (* total product limit *)
  let _, r = vet ~options:{ Options.default with Options.max_product_est = Some 2 } q in
  (match r with
  | Some { Admission.kind = Admission.Max_product_est; limit = 2; conjunct = None; _ } -> ()
  | _ -> Alcotest.fail "expected a max-product-est rejection");
  (* generous limits admit *)
  let _, r =
    vet
      ~options:
        {
          Options.default with
          Options.max_states = Some 1_000_000;
          max_product_est = Some 1_000_000_000;
        }
      q
  in
  check Alcotest.bool "generous limits admit" true (r = None)

(* --- the engine surface ----------------------------------------------- *)

let test_rejected_stream () =
  let g, k = fixture () in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") (R.star (R.lbl "p")) (Q.Var "Y") in
  let options = { Options.default with Options.max_states = Some 1 } in
  let st = Engine.open_query ~graph:g ~ontology:k ~options q in
  check Alcotest.bool "no answers" true (Engine.next st = None);
  (match Engine.status st with
  | Engine.Rejected r ->
    check Alcotest.bool "rejection prints" true (String.length (Admission.rejection_string r) > 0)
  | t -> Alcotest.failf "expected Rejected, got %a" Engine.pp_termination t);
  (match Engine.admission st with
  | Some e -> check Alcotest.bool "estimate exposed" true (e.Admission.total_states > 0)
  | None -> Alcotest.fail "vetted stream must expose its estimate");
  let stats = Engine.stream_stats st in
  check Alcotest.int "no edges scanned" 0 stats.Core.Exec_stats.edges_scanned;
  check Alcotest.int "no pushes" 0 stats.Core.Exec_stats.pushes;
  check Alcotest.int "no seeds" 0 stats.Core.Exec_stats.seeds

let test_admitted_stream_counter () =
  let g, k = fixture () in
  let q = Q.single (Q.Var "X") (R.lbl "p") (Q.Var "Y") in
  let options = { Options.default with Options.max_states = Some 1_000 } in
  let outcome = Engine.run ~graph:g ~ontology:k ~options q in
  check Alcotest.bool "completed" true (outcome.Engine.termination = Engine.Completed);
  check Alcotest.bool "admission_est_states recorded" true
    (outcome.Engine.stats.Core.Exec_stats.admission_est_states > 0);
  (* the same query unvetted reports 0 (the estimate is never computed) *)
  let plain = Engine.run ~graph:g ~ontology:k q in
  check Alcotest.int "unvetted runs don't estimate" 0
    plain.Engine.stats.Core.Exec_stats.admission_est_states

let () =
  Alcotest.run "admission"
    [
      ( "estimate",
        [
          Alcotest.test_case "seed estimates" `Quick test_seed_estimates;
          Alcotest.test_case "APPROX expansion grows the automaton" `Quick
            test_expansion_grows_states;
          Alcotest.test_case "totals and join arity" `Quick test_totals_and_arity;
        ] );
      ("vet", [ Alcotest.test_case "rejection rules" `Quick test_vet_rules ]);
      ( "engine",
        [
          Alcotest.test_case "born-rejected stream" `Quick test_rejected_stream;
          Alcotest.test_case "admitted stream records the estimate" `Quick
            test_admitted_stream_counter;
        ] );
    ]
