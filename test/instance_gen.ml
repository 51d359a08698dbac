(* Random single-conjunct instances over small graphs with a fixed
   class/property hierarchy — the shared generator behind the differential
   oracle suite (test_oracle) and the chaos suite (test_chaos).

   Instances cover every conjunct shape the engine distinguishes: variable
   and constant subjects and objects (including unknown constants and
   repeated variables) and exact / APPROX / RELAX modes. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module R = Rpq_regex.Regex

let labels = [ "p"; "q"; "r"; "type" ]
let n_classes = 3

type instance = {
  n_base : int; (* plain nodes n0 .. n{n_base-1}; class nodes C0..C2 follow *)
  edges : (int * string * int) list;
  types : (int * int) list; (* base node -> class index, as type edges *)
  regex : R.t;
  mode : Q.mode;
  subj : [ `Var | `Node of int | `Ghost ];
  obj : [ `Fresh | `Same | `Node of int | `Ghost ];
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
    let* n_base = int_range 12 27 in
    let n_total = n_base + n_classes in
    let* edges =
      list_size (int_range 10 60)
        (triple (int_bound (n_total - 1))
           (map (List.nth labels) (int_bound 3))
           (int_bound (n_total - 1)))
    in
    let* types = list_size (int_range 0 8) (pair (int_bound (n_base - 1)) (int_bound (n_classes - 1))) in
    let* regex = gen_regex in
    let* subj =
      frequency
        [
          (4, return `Var);
          (3, map (fun i -> `Node i) (int_bound (n_total - 1)));
          (1, return `Ghost);
        ]
    in
    let* obj =
      frequency
        [
          (4, return `Fresh);
          (1, return `Same);
          (2, map (fun i -> `Node i) (int_bound (n_total - 1)));
          (1, return `Ghost);
        ]
    in
    return { n_base; edges; types; regex; mode; subj; obj })

let name_of inst i =
  if i < inst.n_base then Printf.sprintf "n%d" i else Printf.sprintf "C%d" (i - inst.n_base)

let build inst =
  let g = Graph.create () in
  for i = 0 to inst.n_base + n_classes - 1 do
    ignore (Graph.add_node g (name_of inst i))
  done;
  List.iter (fun (s, l, d) -> Graph.add_edge_s g s l d) inst.edges;
  List.iter (fun (n, c) -> Graph.add_edge_s g n "type" (inst.n_base + c)) inst.types;
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subclass k "C0" "C1";
  Ontology.add_subclass k "C1" "C2";
  Ontology.add_subproperty k "q" "p";
  Ontology.add_subproperty k "p" "super";
  Ontology.add_domain k "p" "C0";
  Ontology.add_range k "p" "C1";
  Graph.freeze g;
  (g, k)

(* Domain counts the property suites sweep.  The determinism contract
   (DESIGN.md §Parallel evaluation) is that the answer *multiset* — and for
   any two parallel counts the exact stream — is independent of [domains],
   so the oracle/chaos/provenance generators re-run their properties at
   each count instead of maintaining copy-pasted parallel suites.  The
   sweep can be pinned from the environment (the CI multi-core job exports
   [OMEGA_DOMAINS=4] to re-run everything at one parallel width). *)
let domains_under_test () =
  match Sys.getenv_opt Core.Options.domains_env_var with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some _ -> [ 1; Core.Options.domains_from_env () ]

let with_domains options domains = { options with Core.Options.domains }

let conjunct_of inst =
  let subj =
    match inst.subj with
    | `Var -> Q.Var "X"
    | `Node i -> Q.Const (name_of inst i)
    | `Ghost -> Q.Const "missing"
  in
  let obj =
    match inst.obj with
    | `Fresh -> Q.Var "Y"
    | `Same -> Q.Var "X"
    | `Node i -> Q.Const (name_of inst i)
    | `Ghost -> Q.Const "absent"
  in
  Q.conjunct ~mode:inst.mode subj inst.regex obj

(* Instances whose regex compiles to at least 64 states, so that a visited
   slot's state bitset spans more than one word: a concatenation of 64 to
   100 atoms, mostly the wildcard [_] so that exact paths still run deep
   into the automaton on a small graph.  APPROX instances start from a
   constant, to keep the oracle's product small.  The generator builds
   each instance's graph and checks the compiled automaton's size under
   the instance's mode. *)
let min_long_states = 64

let gen_long_regex =
  QCheck2.Gen.(
    let leaf =
      oneofl [ R.lbl "p"; R.lbl "q"; R.lbl "r"; R.inv "p"; R.inv "q"; R.lbl "type"; R.inv "type" ]
    in
    let atom = frequency [ (4, return R.any); (1, leaf); (1, map R.star leaf) ] in
    let* n = int_range 64 100 in
    let* atoms = list_repeat n atom in
    return (List.fold_left R.seq (List.hd atoms) (List.tl atoms)))

let gen_long_instance ~mode =
  QCheck2.Gen.(
    let* inst = gen_instance ~mode in
    let* regex = gen_long_regex in
    let* node = int_bound (inst.n_base + n_classes - 1) in
    let subj = if mode = Q.Exact then inst.subj else `Node node in
    let inst = { inst with regex; subj } in
    let g, k = build inst in
    let nfa =
      Automaton.Compile.conjunct_automaton ~graph:g ~ontology:k
        ~mode:(Core.Options.compile_mode Core.Options.default mode)
        regex
    in
    assert (Automaton.Nfa.n_states nfa >= min_long_states);
    return inst)
