type costs = { ins : int; del : int; sub : int; beta : int; gamma : int }

type t = {
  costs : costs;
  batch_size : int;
  distance_aware : bool;
  decompose : bool;
  max_tuples : int option;
  timeout_ns : int option;
  max_answers : int option;
  max_memory_bytes : int option;
  max_states : int option;
  max_product_est : int option;
  final_priority : bool;
  provenance : bool;
  domains : int;
}

let default_costs = { ins = 1; del = 1; sub = 1; beta = 1; gamma = 1 }

let default =
  {
    costs = default_costs;
    batch_size = 100;
    distance_aware = false;
    decompose = false;
    max_tuples = None;
    timeout_ns = None;
    max_answers = None;
    max_memory_bytes = None;
    max_states = None;
    max_product_est = None;
    final_priority = true;
    provenance = false;
    domains = 1;
  }

let domains_env_var = "OMEGA_DOMAINS"

(* Out-of-range values fall back to 1 rather than erroring: the variable is
   a deployment knob read by binaries at startup, and a bad value must not
   turn every query into a usage failure. *)
let domains_from_env () =
  match Sys.getenv_opt domains_env_var with
  | None | Some "" -> 1
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 && n <= 64 -> n | _ -> 1)

let governor ?limit t =
  let max_answers =
    match (limit, t.max_answers) with
    | None, cap -> cap
    | Some l, None -> Some l
    | Some l, Some cap -> Some (min l cap)
  in
  Governor.create ?timeout_ns:t.timeout_ns ?max_tuples:t.max_tuples ?max_answers
    ?max_memory_bytes:t.max_memory_bytes ()

let phi t (mode : Query.mode) =
  let pos x = if x > 0 then [ x ] else [] in
  let candidates =
    match mode with
    | Query.Exact -> []
    | Query.Approx -> pos t.costs.ins @ pos t.costs.del @ pos t.costs.sub
    | Query.Relax -> pos t.costs.beta @ pos t.costs.gamma
  in
  match candidates with [] -> 1 | c :: cs -> List.fold_left min c cs

let compile_mode t (mode : Query.mode) =
  match mode with
  | Query.Exact -> Automaton.Compile.Exact
  | Query.Approx ->
    Automaton.Compile.Approx { ins = t.costs.ins; del = t.costs.del; sub = t.costs.sub }
  | Query.Relax -> Automaton.Compile.Relax { beta = t.costs.beta; gamma = t.costs.gamma }
