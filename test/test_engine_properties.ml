(* Property tests pitting the full engine (Open/GetNext/Succ, D_R, seeder,
   visited set, evaluation strategies) against an independent reference
   evaluator: a plain Dijkstra over the explicit product of the compiled
   automaton and the data graph.  The two share only the automaton
   compilation, so these properties exercise all of the engine's physical
   machinery on random graphs and queries. *)

module Graph = Graphstore.Graph
module Nfa = Automaton.Nfa
module Q = Core.Query
module R = Rpq_regex.Regex

let labels = [ "p"; "q"; "r"; "type" ]

(* --- random instances ------------------------------------------------- *)

type instance = {
  n_nodes : int;
  edges : (int * string * int) list;
  regex : R.t;
  mode : Q.mode;
  subj_const : int option; (* Some i: subject is node i; None: variable *)
}

let gen_regex =
  QCheck2.Gen.(
    sized (fun size ->
        let rec gen n =
          if n <= 1 then
            oneof
              [
                return (R.lbl "p"); return (R.lbl "q"); return (R.lbl "r");
                return (R.inv "p"); return (R.inv "q"); return R.any;
                return (R.lbl "type"); return (R.inv "type");
              ]
          else
            oneof
              [
                map2 R.seq (gen (n / 2)) (gen (n / 2));
                map2 R.alt (gen (n / 2)) (gen (n / 2));
                map R.star (gen (n / 2));
                map R.plus (gen (n / 2));
              ]
        in
        gen (min size 8)))

let gen_instance ~mode =
  QCheck2.Gen.(
    let* n_nodes = int_range 2 8 in
    let* edges =
      list_size (int_range 1 16)
        (triple (int_bound (n_nodes - 1))
           (map (List.nth labels) (int_bound 3))
           (int_bound (n_nodes - 1)))
    in
    let* regex = gen_regex in
    let* subj_const = option (int_bound (n_nodes - 1)) in
    return { n_nodes; edges; regex; mode; subj_const })

let node_name i = Printf.sprintf "n%d" i

let build instance =
  let g = Graph.create () in
  for i = 0 to instance.n_nodes - 1 do
    ignore (Graph.add_node g (node_name i))
  done;
  List.iter (fun (s, l, d) -> Graph.add_edge_s g s l d) instance.edges;
  let k = Ontology.create (Graph.interner g) in
  (* a small property hierarchy so RELAX has something to do *)
  Ontology.add_subproperty k "p" "super";
  Ontology.add_subproperty k "q" "super";
  Ontology.add_domain k "p" "n0";
  Ontology.add_range k "p" "n1";
  (g, k)

(* --- the reference evaluator ------------------------------------------ *)

(* Independent label matching: scans the whole edge list instead of using
   the store's indexes. *)
let ref_neighbours g n (lbl : Nfa.tlabel) =
  let type_l = Graph.type_label g in
  let acc = ref [] in
  Graph.iter_edges g (fun src l dst ->
      let matches =
        match lbl with
        | Nfa.Eps -> false
        | Nfa.Sym (Fwd, a) -> l = a && src = n
        | Nfa.Sym (Bwd, a) -> l = a && dst = n
        | Nfa.Any -> src = n || dst = n
        | Nfa.Any_dir Fwd -> src = n
        | Nfa.Any_dir Bwd -> dst = n
        | Nfa.Sub_closure (Fwd, ls) -> src = n && Array.exists (fun x -> x = l) ls
        | Nfa.Sub_closure (Bwd, ls) -> dst = n && Array.exists (fun x -> x = l) ls
        | Nfa.Type_to c -> l = type_l && src = n && dst = c
      in
      if matches then begin
        match lbl with
        | Nfa.Any ->
          if src = n then acc := dst :: !acc;
          if dst = n then acc := src :: !acc
        | Nfa.Sym (Bwd, _) | Nfa.Any_dir Bwd | Nfa.Sub_closure (Bwd, _) -> acc := src :: !acc
        | _ -> acc := dst :: !acc
      end);
  !acc

(* Dijkstra over (node, state) from one start node. *)
let ref_distances g nfa start =
  let n_states = Nfa.n_states nfa in
  let dist = Hashtbl.create 64 in
  let key n s = (n * n_states) + s in
  Hashtbl.add dist (key start (Nfa.initial nfa)) 0;
  let rec loop frontier =
    match frontier with
    | [] -> ()
    | (d, n, s) :: rest ->
      if d > Hashtbl.find dist (key n s) then loop rest
      else begin
        let rest =
          List.fold_left
            (fun acc (tr : Nfa.transition) ->
              List.fold_left
                (fun acc m ->
                  let nd = d + tr.Nfa.cost in
                  let better =
                    match Hashtbl.find_opt dist (key m tr.Nfa.dst) with
                    | None -> true
                    | Some old -> nd < old
                  in
                  if better then begin
                    Hashtbl.replace dist (key m tr.Nfa.dst) nd;
                    List.merge compare [ (nd, m, tr.Nfa.dst) ] acc
                  end
                  else acc)
                acc
                (ref_neighbours g n tr.Nfa.lbl))
            rest (Nfa.out nfa s)
        in
        loop rest
      end
  in
  loop [ (0, start, Nfa.initial nfa) ];
  dist

(* All (x, y, distance) answers of a conjunct, by reference evaluation. *)
let ref_answers g k options (conjunct : Q.conjunct) =
  let mode = Core.Options.compile_mode options conjunct.Q.cmode in
  let nfa = Automaton.Compile.conjunct_automaton ~graph:g ~ontology:k ~mode conjunct.Q.regex in
  let n_states = Nfa.n_states nfa in
  let starts =
    match conjunct.Q.subj with
    | Q.Const c -> (
      match Graph.find_node g c with
      | Some oid ->
        (* RELAX class-ancestor seeding: the only class-named nodes in these
           instances (n0, n1, via dom/range) have no super-classes, so the
           ancestor seed set is always just the node itself at cost 0 *)
        [ (oid, 0) ]
      | None -> [])
    | Q.Var _ -> List.init (Graph.n_nodes g) (fun i -> (i, 0))
  in
  let best = Hashtbl.create 64 in
  List.iter
    (fun (v, seed_cost) ->
      let dist = ref_distances g nfa v in
      Graph.iter_nodes g (fun n ->
          List.iter
            (fun (s, weight) ->
              match Hashtbl.find_opt dist ((n * n_states) + s) with
              | Some d ->
                let total = seed_cost + d + weight in
                let keep =
                  match Hashtbl.find_opt best (v, n) with None -> true | Some t -> total < t
                in
                if keep then Hashtbl.replace best (v, n) total
              | None -> ())
            (Nfa.finals nfa)))
    starts;
  Hashtbl.fold (fun (v, n) d acc -> (v, n, d) :: acc) best [] |> List.sort compare

(* The engine's answers, drained to exhaustion. *)
let engine_answers g k options (conjunct : Q.conjunct) =
  let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let rec drain acc =
    match Core.Evaluator.next ev with
    | Some (a : Core.Conjunct.answer) -> drain ((a.x, a.y, a.dist) :: acc)
    | None -> List.rev acc
  in
  drain []

let conjunct_of instance =
  let subj =
    match instance.subj_const with Some i -> Q.Const (node_name i) | None -> Q.Var "X"
  in
  Q.conjunct ~mode:instance.mode subj instance.regex (Q.Var "Y")

let agree ?(options = Core.Options.default) instance =
  let g, k = build instance in
  let conjunct = conjunct_of instance in
  let expected = ref_answers g k options conjunct in
  let actual = engine_answers g k options conjunct in
  let sorted = List.sort compare actual in
  let rec non_decreasing last = function
    | [] -> true
    | (_, _, d) :: rest -> d >= last && non_decreasing d rest
  in
  sorted = expected && non_decreasing 0 actual

let prop name mode options =
  QCheck2.Test.make ~name ~count:150 (gen_instance ~mode) (fun instance ->
      agree ?options instance)

let exact_prop = prop "engine = product Dijkstra (exact)" Q.Exact None

let approx_prop = prop "engine = product Dijkstra (APPROX)" Q.Approx None

let relax_prop = prop "engine = product Dijkstra (RELAX)" Q.Relax None

let distance_aware_prop =
  prop "distance-aware engine = product Dijkstra (APPROX)" Q.Approx
    (Some { Core.Options.default with Core.Options.distance_aware = true })

let decomposed_prop =
  QCheck2.Test.make ~name:"decomposed engine = plain engine (APPROX alternation)" ~count:100
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) gen_regex)
    (fun (instance, extra) ->
      (* force a top-level alternation so decomposition actually kicks in *)
      let instance = { instance with regex = R.Alt (instance.regex, extra) } in
      let g, k = build instance in
      let conjunct = conjunct_of instance in
      let plain = engine_answers g k Core.Options.default conjunct in
      let decomposed =
        engine_answers g k
          { Core.Options.default with Core.Options.decompose = true }
          conjunct
      in
      List.sort compare plain = List.sort compare decomposed)

(* The §3.3 ablation switches change performance, never answers. *)
let ablation_prop name options =
  QCheck2.Test.make ~name ~count:100 (gen_instance ~mode:Q.Approx) (fun instance ->
      let g, k = build instance in
      let conjunct = conjunct_of instance in
      let default = engine_answers g k Core.Options.default conjunct in
      let ablated = engine_answers g k options conjunct in
      List.sort compare default = List.sort compare ablated)

let no_final_priority_prop =
  ablation_prop "disabling final priority changes nothing (answers)"
    { Core.Options.default with Core.Options.final_priority = false }

let unbatched_seeding_prop =
  ablation_prop "disabling batched seeding changes nothing (answers)"
    { Core.Options.default with Core.Options.batch_size = max_int }

let small_batch_prop =
  QCheck2.Test.make ~name:"batch size 1 changes nothing" ~count:100
    (gen_instance ~mode:Q.Exact)
    (fun instance ->
      let g, k = build instance in
      let conjunct = conjunct_of instance in
      let default = engine_answers g k Core.Options.default conjunct in
      let tiny =
        engine_answers g k { Core.Options.default with Core.Options.batch_size = 1 } conjunct
      in
      List.sort compare default = List.sort compare tiny)

let () =
  Alcotest.run "engine_properties"
    [
      ( "vs reference",
        [
          QCheck_alcotest.to_alcotest exact_prop;
          QCheck_alcotest.to_alcotest approx_prop;
          QCheck_alcotest.to_alcotest relax_prop;
          QCheck_alcotest.to_alcotest distance_aware_prop;
        ] );
      ( "strategies",
        [
          QCheck_alcotest.to_alcotest decomposed_prop;
          QCheck_alcotest.to_alcotest small_batch_prop;
          QCheck_alcotest.to_alcotest no_final_priority_prop;
          QCheck_alcotest.to_alcotest unbatched_seeding_prop;
        ] );
    ]
