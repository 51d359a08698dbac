module Graph = Graphstore.Graph
module Regex = Rpq_regex.Regex

type seeding =
  | Empty of { name : string; on_object : bool }
  | Constant of { name : string; oid : int }
  | Ancestors of { name : string; oid : int }
  | Variable of { batch_size : int }

type strategy = Plain | Distance_aware | Decomposed
type part = { source : Regex.t; nfa : Automaton.Nfa.t }

type t = {
  conjunct : Query.conjunct;
  reversed : bool;
  automaton : Automaton.Nfa.t;
  seeding : seeding;
  target : int option;
  same_var : bool;
  phi : int;
  strategy : strategy;
  parts : part list;
  canonical : bool;
}

let make ~graph ~ontology ~options (conjunct : Query.conjunct) =
  (* Case 2 of [Open]: (?X, R, C) is evaluated as (C, R-, ?X). *)
  let reversed =
    match (conjunct.subj, conjunct.obj) with Query.Var _, Query.Const _ -> true | _ -> false
  in
  let subj, obj = if reversed then (conjunct.obj, conjunct.subj) else (conjunct.subj, conjunct.obj) in
  let mode = Options.compile_mode options conjunct.cmode in
  let compile source =
    let regex = if reversed then Regex.reverse source else source in
    Automaton.Compile.conjunct_automaton ~graph ~ontology ~mode regex
  in
  (* An unknown object constant can never be matched: oids are dense
     non-negative ints, so no tuple's node ever equals the [-1] sentinel.
     Rather than explore the whole reachable product for nothing, the
     conjunct gets no seeds and terminates at once with zero answers. *)
  let node name = Option.value (Graph.find_node graph name) ~default:(-1) in
  let target = match obj with Query.Const name -> Some (node name) | Query.Var _ -> None in
  let seeding =
    match (obj, subj) with
    | Query.Const name, _ when target = Some (-1) -> Empty { name; on_object = true }
    | _, Query.Const name when node name < 0 -> Empty { name; on_object = false }
    | _, Query.Const name when conjunct.cmode = Query.Relax -> Ancestors { name; oid = node name }
    | _, Query.Const name -> Constant { name; oid = node name }
    | _, Query.Var _ -> Variable { batch_size = options.Options.batch_size }
  in
  let alternatives = Regex.top_level_alternatives conjunct.regex in
  let decomposed = options.Options.decompose && List.length alternatives > 1 in
  let strategy =
    if decomposed then Decomposed else if options.Options.distance_aware then Distance_aware else Plain
  in
  let automaton = compile conjunct.regex in
  let parts =
    if decomposed then List.map (fun source -> { source; nfa = compile source }) alternatives
    else [ { source = conjunct.regex; nfa = automaton } ]
  in
  (* The (distance, x, y) order of [domains >= 2] applies to a plain
     (?X, R, ?Y) conjunct only: the ψ-levelled strategies (§4.3) and the
     constant-seeded searches keep their own emission order. *)
  let canonical =
    match subj with Query.Var _ -> strategy = Plain && options.Options.domains > 1 | _ -> false
  in
  {
    conjunct;
    reversed;
    automaton;
    seeding;
    target;
    same_var = (match (subj, obj) with Query.Var a, Query.Var b -> a = b | _ -> false);
    phi = Options.phi options conjunct.cmode;
    strategy;
    parts;
    canonical;
  }

let of_query ~graph ~ontology ~options (q : Query.t) =
  List.map (make ~graph ~ontology ~options) q.Query.conjuncts
