(* Tests for the engine's physical data structures: the distance-bucketed
   dictionary D_R, the batch seeder, options and counters. *)

module Dr = Core.Dr_queue
module Seeder = Core.Seeder
module Options = Core.Options
module Graph = Graphstore.Graph

let check = Alcotest.check

(* --- Dr_queue -------------------------------------------------------- *)

let test_dr_fifo_distance_order () =
  let q = Dr.create () in
  Dr.push q ~dist:3 ~final:false "d3";
  Dr.push q ~dist:1 ~final:false "d1";
  Dr.push q ~dist:2 ~final:false "d2";
  check Alcotest.(option (triple string int bool)) "min first" (Some ("d1", 1, false)) (Dr.pop q);
  check Alcotest.(option (triple string int bool)) "then 2" (Some ("d2", 2, false)) (Dr.pop q);
  check Alcotest.(option (triple string int bool)) "then 3" (Some ("d3", 3, false)) (Dr.pop q);
  check Alcotest.(option (triple string int bool)) "empty" None (Dr.pop q)

let test_dr_final_priority () =
  let q = Dr.create () in
  Dr.push q ~dist:1 ~final:false "nf";
  Dr.push q ~dist:1 ~final:true "f";
  (match Dr.pop q with
  | Some (v, 1, true) -> check Alcotest.string "final first" "f" v
  | _ -> Alcotest.fail "expected the final tuple");
  match Dr.pop q with
  | Some (v, 1, false) -> check Alcotest.string "then non-final" "nf" v
  | _ -> Alcotest.fail "expected the non-final tuple"

let test_dr_lifo_within_bucket () =
  let q = Dr.create () in
  Dr.push q ~dist:0 ~final:false "first";
  Dr.push q ~dist:0 ~final:false "second";
  match Dr.pop q with
  | Some ("second", _, _) -> ()
  | _ -> Alcotest.fail "stacks pop most-recently-pushed first"

let test_dr_push_below_current_min () =
  let q = Dr.create () in
  Dr.push q ~dist:5 ~final:false "far";
  ignore (Dr.pop q);
  (* the internal lower bound advanced to 5; a later cheaper push must
     still be served first (seed batches re-enter at distance 0) *)
  Dr.push q ~dist:7 ~final:false "far2";
  Dr.push q ~dist:0 ~final:false "near";
  check Alcotest.(option (triple string int bool)) "near first" (Some ("near", 0, false)) (Dr.pop q)

let test_dr_sizes () =
  let q = Dr.create () in
  check Alcotest.bool "empty" true (Dr.is_empty q);
  Dr.push q ~dist:0 ~final:false ();
  Dr.push q ~dist:64 ~final:true ();
  (* grows beyond initial bucket capacity *)
  check Alcotest.int "size" 2 (Dr.size q);
  check Alcotest.bool "has_at 0" true (Dr.has_at q 0);
  check Alcotest.bool "has_at 64" true (Dr.has_at q 64);
  check Alcotest.bool "has_at 3" false (Dr.has_at q 3);
  check Alcotest.(option int) "min" (Some 0) (Dr.min_distance q);
  Dr.clear q;
  check Alcotest.bool "cleared" true (Dr.is_empty q)

let test_dr_negative_rejected () =
  let q = Dr.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Dr_queue.push: negative distance") (fun () ->
      Dr.push q ~dist:(-1) ~final:false ())

(* Property: popping yields non-decreasing distances when pushes never go
   below the last popped distance (the engine's invariant: successors cost
   at least their parent). *)
let dr_monotone_pops =
  QCheck2.Test.make ~name:"pops are non-decreasing under monotone pushes" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (pair (int_bound 10) bool))
    (fun pushes ->
      let q = Dr.create () in
      (* push everything up-front: a valid special case of the invariant *)
      List.iteri (fun i (d, f) -> Dr.push q ~dist:d ~final:f i) pushes;
      let rec drain last =
        match Dr.pop q with
        | None -> true
        | Some (_, d, _) -> d >= last && drain d
      in
      drain 0)

(* Property: [peek] shows exactly what the next [pop] removes, and leaves
   the queue as it was, under any interleaving of pushes and pops. *)
let dr_peek_is_next_pop =
  QCheck2.Test.make ~name:"peek is the next pop and removes nothing" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (option (pair (int_bound 10) bool)))
    (fun ops ->
      let q = Dr.create () in
      List.for_all
        (function
          | Some (d, f) ->
            Dr.push q ~dist:d ~final:f (d, f);
            true
          | None ->
            let size = Dr.size q in
            let top = Dr.peek q in
            Dr.size q = size && Dr.peek q = top && Dr.pop q = top)
        ops)

(* --- Triple_set --------------------------------------------------------- *)

(* Property: the (seed, node)-keyed set answers [add] and [mem] exactly as
   a [Hashtbl] keyed by the triple does, and so does one [find] of the pair
   followed by [slot_mem].  Pairs come from a small square so
   that probes collide, sequences are long enough to grow the table
   several times, and automata run up to 140 states, so a slot's bitset
   spans up to three words.  [length] counts triples, not pairs. *)
let triple_set_model =
  QCheck2.Test.make ~name:"agrees with a Hashtbl model" ~count:200
    QCheck2.Gen.(
      int_range 1 140 >>= fun states ->
      pair (return states)
        (list_size (int_range 1 3000)
           (pair bool (triple (int_bound 40) (int_bound 40) (int_bound (states - 1))))))
    (fun (states, ops) ->
      let module S = Core.Triple_set in
      let set = S.create ~states 1 and model = Hashtbl.create 16 in
      List.for_all
        (fun (insert, (a, b, c)) ->
          let expected = Hashtbl.mem model (a, b, c) in
          let agrees =
            if insert then begin
              Hashtbl.replace model (a, b, c) ();
              S.add set a b c = not expected
            end
            else
              S.mem set a b c = expected && S.slot_mem set (S.find set a b) c = expected
          in
          agrees && S.length set = Hashtbl.length model)
        ops)

(* --- Seeder ----------------------------------------------------------- *)

let seeder_graph () =
  let g = Graph.create () in
  let a = Graph.add_node g "a"
  and b = Graph.add_node g "b"
  and c = Graph.add_node g "c"
  and d = Graph.add_node g "d" in
  Graph.add_edge_s g a "p" b;
  Graph.add_edge_s g b "p" c;
  Graph.add_edge_s g c "q" d;
  g

let drain seeder =
  let rec go acc =
    match Seeder.next_batch seeder with [] -> List.rev acc | batch -> go (List.rev_append batch acc)
  in
  go []

let test_seeder_fixed () =
  let s = Seeder.of_list [ (3, 0); (5, 2); (3, 1) ] in
  check Alcotest.bool "not exhausted" false (Seeder.exhausted s);
  check Alcotest.(list (pair int int)) "one batch, deduped" [ (3, 0); (5, 2) ] (Seeder.next_batch s);
  check Alcotest.bool "exhausted" true (Seeder.exhausted s);
  check Alcotest.(list (pair int int)) "empty after" [] (Seeder.next_batch s)

let make_start_nfa ~final_weight labels =
  let nfa = Automaton.Nfa.create () in
  let target = Automaton.Nfa.fresh_state nfa in
  List.iter (fun lbl -> Automaton.Nfa.add_transition nfa 0 lbl 0 target) labels;
  (match final_weight with Some w -> Automaton.Nfa.set_final nfa 0 w | None -> ());
  Automaton.Nfa.set_final nfa target 0;
  nfa

let test_seeder_start_nodes_by_label () =
  let g = seeder_graph () in
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  let nfa = make_start_nfa ~final_weight:None [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, p) ] in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  check Alcotest.(list (pair int int)) "sources of p" [ (0, 0); (1, 0) ] (drain s)

let test_seeder_backward_label () =
  let g = seeder_graph () in
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  let nfa = make_start_nfa ~final_weight:None [ Automaton.Nfa.Sym (Automaton.Nfa.Bwd, p) ] in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  check Alcotest.(list (pair int int)) "targets of p" [ (1, 0); (2, 0) ] (drain s)

let test_seeder_all_nodes_when_final_zero () =
  let g = seeder_graph () in
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  let nfa = make_start_nfa ~final_weight:(Some 0) [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, p) ] in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  check Alcotest.int "all nodes" (Graph.n_nodes g) (List.length (drain s))

let test_seeder_start_then_rest_when_final_weighted () =
  let g = seeder_graph () in
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  let nfa = make_start_nfa ~final_weight:(Some 2) [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, p) ] in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  let seeds = List.map fst (drain s) in
  check Alcotest.int "all nodes eventually" (Graph.n_nodes g) (List.length seeds);
  (* label-compatible nodes come first *)
  check Alcotest.(list int) "p-sources first" [ 0; 1 ] [ List.nth seeds 0; List.nth seeds 1 ]

let test_seeder_batching () =
  let g = Graph.create () in
  for i = 0 to 24 do
    let n = Graph.add_node g (string_of_int i) in
    let m = Graph.add_node g (string_of_int i ^ "'") in
    Graph.add_edge_s g n "p" m
  done;
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  let nfa = make_start_nfa ~final_weight:None [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, p) ] in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  check Alcotest.int "first batch" 10 (List.length (Seeder.next_batch s));
  check Alcotest.int "second batch" 10 (List.length (Seeder.next_batch s));
  check Alcotest.int "last short batch" 5 (List.length (Seeder.next_batch s));
  check Alcotest.(list (pair int int)) "exhausted" [] (Seeder.next_batch s)

let test_seeder_dedup_across_labels () =
  let g = seeder_graph () in
  let interner = Graph.interner g in
  let p = Graphstore.Interner.intern interner "p"
  and q = Graphstore.Interner.intern interner "q" in
  (* node c(2) is a source of q and a target of p; with both transitions it
     must be delivered once *)
  let nfa =
    make_start_nfa ~final_weight:None
      [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, q); Automaton.Nfa.Sym (Automaton.Nfa.Bwd, p) ]
  in
  let s = Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 () in
  let seeds = List.map fst (drain s) in
  check Alcotest.(list int) "distinct" (List.sort_uniq compare seeds) (List.sort compare seeds)

(* A filtered (shard) seeder walks oids in ascending order: the same seeds
   as the unfiltered one restricted to the filter, and [frontier] is the
   next one not drawn yet. *)
let test_seeder_filtered_walk () =
  let g = Graph.create () in
  for i = 0 to 39 do
    ignore (Graph.add_node g (string_of_int i))
  done;
  (* p-sources at multiples of 3, q-targets at multiples of 5 *)
  for i = 0 to 38 do
    if i mod 3 = 0 then Graph.add_edge_s g i "p" (i + 1);
    if i mod 5 = 0 && i > 0 then Graph.add_edge_s g (i - 1) "q" i
  done;
  let interner = Graph.interner g in
  let p = Graphstore.Interner.intern interner "p" and q = Graphstore.Interner.intern interner "q" in
  let nfa =
    make_start_nfa ~final_weight:None
      [ Automaton.Nfa.Sym (Automaton.Nfa.Fwd, p); Automaton.Nfa.Sym (Automaton.Nfa.Bwd, q) ]
  in
  let even oid = oid mod 2 = 0 in
  let expected =
    List.sort compare
      (List.filter even
         (List.map fst (drain (Seeder.of_initial_state ~graph:g ~nfa ~batch_size:10 ()))))
  in
  let s = Seeder.of_initial_state ~filter:even ~graph:g ~nfa ~batch_size:3 () in
  check Alcotest.int "frontier before any draw" (List.hd expected) (Seeder.frontier s);
  let rec go acc =
    match Seeder.next_batch s with
    | [] -> List.rev acc
    | batch ->
      let acc = List.rev_append (List.map fst batch) acc in
      let drawn = List.length acc in
      check Alcotest.int "frontier: the next seed not drawn"
        (if drawn < List.length expected then List.nth expected drawn else max_int)
        (Seeder.frontier s);
      go acc
  in
  check Alcotest.(list int) "ascending, the unfiltered seeds restricted to the filter" expected (go []);
  check Alcotest.bool "exhausted" true (Seeder.exhausted s)

(* --- Options ----------------------------------------------------------- *)

let test_phi () =
  check Alcotest.int "exact" 1 (Options.phi Options.default Core.Query.Exact);
  check Alcotest.int "approx uniform" 1 (Options.phi Options.default Core.Query.Approx);
  let costs = { Options.default_costs with Options.ins = 4; del = 6; sub = 5 } in
  check Alcotest.int "approx min" 4
    (Options.phi { Options.default with Options.costs } Core.Query.Approx);
  let costs = { Options.default_costs with Options.beta = 3; gamma = 7 } in
  check Alcotest.int "relax min" 3
    (Options.phi { Options.default with Options.costs } Core.Query.Relax)

(* --- Exec_stats --------------------------------------------------------- *)

let test_stats_merge () =
  let a = Core.Exec_stats.create () and b = Core.Exec_stats.create () in
  a.Core.Exec_stats.pushes <- 5;
  a.Core.Exec_stats.peak_queue <- 10;
  b.Core.Exec_stats.pushes <- 7;
  b.Core.Exec_stats.peak_queue <- 4;
  Core.Exec_stats.merge_into a b;
  check Alcotest.int "pushes add" 12 a.Core.Exec_stats.pushes;
  check Alcotest.int "peak is max" 10 a.Core.Exec_stats.peak_queue;
  Core.Exec_stats.reset a;
  check Alcotest.int "reset" 0 a.Core.Exec_stats.pushes

let () =
  Alcotest.run "structures"
    [
      ( "dr_queue",
        [
          Alcotest.test_case "distance order" `Quick test_dr_fifo_distance_order;
          Alcotest.test_case "final priority" `Quick test_dr_final_priority;
          Alcotest.test_case "lifo buckets" `Quick test_dr_lifo_within_bucket;
          Alcotest.test_case "push below min" `Quick test_dr_push_below_current_min;
          Alcotest.test_case "sizes" `Quick test_dr_sizes;
          Alcotest.test_case "negative distance" `Quick test_dr_negative_rejected;
          QCheck_alcotest.to_alcotest dr_monotone_pops;
          QCheck_alcotest.to_alcotest dr_peek_is_next_pop;
        ] );
      ("triple_set", [ QCheck_alcotest.to_alcotest triple_set_model ]);
      ( "seeder",
        [
          Alcotest.test_case "fixed list" `Quick test_seeder_fixed;
          Alcotest.test_case "start nodes by label" `Quick test_seeder_start_nodes_by_label;
          Alcotest.test_case "backward label" `Quick test_seeder_backward_label;
          Alcotest.test_case "all nodes (final weight 0)" `Quick test_seeder_all_nodes_when_final_zero;
          Alcotest.test_case "start then rest (weighted final)" `Quick
            test_seeder_start_then_rest_when_final_weighted;
          Alcotest.test_case "batching" `Quick test_seeder_batching;
          Alcotest.test_case "dedup across labels" `Quick test_seeder_dedup_across_labels;
          Alcotest.test_case "filtered walk and frontier" `Quick test_seeder_filtered_walk;
        ] );
      ("options", [ Alcotest.test_case "phi" `Quick test_phi ]);
      ("exec_stats", [ Alcotest.test_case "merge/reset" `Quick test_stats_merge ]);
    ]
