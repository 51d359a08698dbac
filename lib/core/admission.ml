(* Admission control: static pre-flight cost analysis of a CRP query,
   run after parsing and before any evaluation state is built.

   The APPROX/RELAX transformations can blow an innocuous regex up into an
   automaton whose lazy product with the graph is infeasible to explore;
   the governor only notices once the work is already being done.  This
   module estimates the blow-up from quantities that are cheap and exact —
   the automaton each conjunct's plan compiled (compilation interns labels
   but never scans an edge), the plan's seeding regime and the graph's node
   count — and lets [Engine.open_query] reject the query outright, before
   the first Succ call.  It compiles nothing itself.  A rejected
   query reports [Engine.Rejected] and provably never touches the graph:
   the chaos suite pins [edges_scanned = 0].

   Estimation formulae (documented in DESIGN.md, "Resource safety"):

     states(c)       = |Q| of the conjunct's compiled automaton
     fanout(c)       = max out-degree over its states
     seed_est(c)     = 1 for a constant seeding regime (after the case-2
                       reversal), 0 for an empty one (an unknown
                       constant), |V_G| for a variable subject
     product_est(c)  = states(c) * seed_est(c)   — the |Q|*|V_seed|
                       frontier bound of the lazy product H_R
     total_product   = sum over conjuncts (a ranked join explores each
                       input's product independently)

   The estimate deliberately ignores the ontology closure of RELAX seeds
   (a handful of ancestors) and never calls [Conjunct.relax_ancestor_seeds]
   — that path consults failpoints, and admission must stay side-effect
   free. *)

module Nfa = Automaton.Nfa

type conjunct_estimate = {
  index : int; (* 1-based, body order *)
  states : int;
  transitions : int;
  fanout : int;
  seed_est : int;
  product_est : int;
}

type estimate = {
  per_conjunct : conjunct_estimate list;
  total_states : int;
  total_product_est : int;
  join_arity : int;
}

type kind = Max_states | Max_product_est

type rejection = { kind : kind; limit : int; actual : int; conjunct : int option }

let fanout nfa =
  let m = ref 0 in
  for s = 0 to Nfa.n_states nfa - 1 do
    let d = List.length (Nfa.out nfa s) in
    if d > !m then m := d
  done;
  !m

let estimate_conjunct ~graph ~index (p : Plan.t) =
  let nfa = p.Plan.automaton in
  let seed_est =
    match p.Plan.seeding with
    | Plan.Empty _ -> 0
    | Plan.Constant _ | Plan.Ancestors _ -> 1
    | Plan.Variable _ -> Graphstore.Graph.n_nodes graph
  in
  let states = Nfa.n_states nfa in
  {
    index;
    states;
    transitions = Nfa.n_transitions nfa;
    fanout = fanout nfa;
    seed_est;
    product_est = states * seed_est;
  }

let estimate ~graph plans =
  let per_conjunct = List.mapi (fun i p -> estimate_conjunct ~graph ~index:(i + 1) p) plans in
  {
    per_conjunct;
    total_states = List.fold_left (fun acc c -> acc + c.states) 0 per_conjunct;
    total_product_est = List.fold_left (fun acc c -> acc + c.product_est) 0 per_conjunct;
    join_arity = List.length per_conjunct;
  }

let vet ~graph ~options plans =
  let est = estimate ~graph plans in
  let states_rejection =
    match options.Options.max_states with
    | None -> None
    | Some limit -> (
      match List.find_opt (fun c -> c.states > limit) est.per_conjunct with
      | Some c ->
        Some { kind = Max_states; limit; actual = c.states; conjunct = Some c.index }
      | None -> None)
  in
  let rejection =
    match states_rejection with
    | Some _ as r -> r
    | None -> (
      match options.Options.max_product_est with
      | Some limit when est.total_product_est > limit ->
        Some { kind = Max_product_est; limit; actual = est.total_product_est; conjunct = None }
      | _ -> None)
  in
  (est, rejection)

let kind_string = function Max_states -> "max-states" | Max_product_est -> "max-product-est"

let rejection_string r =
  match r.kind with
  | Max_states ->
    Printf.sprintf "conjunct %d compiles to %d automaton state(s), over the --max-states limit %d"
      (Option.value r.conjunct ~default:0)
      r.actual r.limit
  | Max_product_est ->
    Printf.sprintf
      "estimated product frontier |Q|x|V_seed| = %d, over the --max-product-est limit %d" r.actual
      r.limit

let pp_rejection ppf r = Format.pp_print_string ppf (rejection_string r)

let pp_estimate ppf e =
  Format.fprintf ppf "states=%d product-est=%d arity=%d" e.total_states e.total_product_est
    e.join_arity;
  List.iter
    (fun c ->
      Format.fprintf ppf "; c%d: states=%d transitions=%d fanout=%d seeds~%d product~%d" c.index
        c.states c.transitions c.fanout c.seed_est c.product_est)
    e.per_conjunct
