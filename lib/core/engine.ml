module Graph = Graphstore.Graph

type answer = {
  bindings : (string * string) list;
  distance : int;
  witnesses : Witness.t list; (* one per conjunct answer; [] unless options.provenance *)
}

(* No longer an alias of [Governor.termination]: admission control rejects a
   query before any governor-observed work happens, so rejection is an
   engine-level outcome with its own arm. *)
type termination =
  | Completed
  | Exhausted of { reason : Governor.reason; elapsed_ns : int; tuples : int; answers : int }
  | Rejected of Admission.rejection

let pp_termination ppf = function
  | Completed -> Format.fprintf ppf "completed"
  | Exhausted { reason; elapsed_ns; tuples; answers } ->
    Format.fprintf ppf "exhausted (%s) after %d answer(s), %d tuple(s)"
      (Governor.reason_string reason) answers tuples;
    (* without a clock the elapsed time was never measured: print none *)
    if Obs.Clock.installed () then Format.fprintf ppf ", %.2f ms" (float_of_int elapsed_ns /. 1e6)
  | Rejected r -> Format.fprintf ppf "rejected: %a" Admission.pp_rejection r

let exit_code = function
  | Completed | Exhausted { reason = Governor.Answer_limit; _ } -> 0
  | Exhausted { reason = Governor.Deadline; _ } -> 3
  | Exhausted { reason = Governor.Tuple_budget | Governor.Memory_budget; _ } -> 4
  | Exhausted { reason = Governor.Fault _; _ } -> 5
  | Rejected _ -> 6

type outcome = {
  answers : answer list;
  termination : termination;
  stats : Exec_stats.t;
  metrics : Obs.Metrics.t;
}

let pp_answer ppf a =
  Format.fprintf ppf "dist=%d %s" a.distance
    (String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "?%s=%s" v x) a.bindings))

let answers_json ?witness answers =
  Obs.Json.List
    (List.map
       (fun a ->
         Obs.Json.Obj
           ([
              ("bindings", Obs.Json.Obj (List.map (fun (v, x) -> (v, Obs.Json.String x)) a.bindings));
              ("distance", Obs.Json.Int a.distance);
            ]
           @
           match witness with
           | None -> []
           | Some to_json -> [ ("witnesses", Obs.Json.List (List.map to_json a.witnesses)) ]))
       answers)

type stream = {
  graph : Graph.t;
  query : Query.t;
  ontology : Ontology.t;
  options : Options.t;
  head : string list;
  plans : Plan.t list; (* one per conjunct, built once at open *)
  evaluators : Evaluator.t list;
  pull : unit -> (Ranked_join.binding * int * Witness.t list) option;
  projected : (string list, unit) Hashtbl.t; (* dedup of projected bindings *)
  governor : Governor.t;
  registry : Obs.Metrics.t; (* shared by every layer of this stream *)
  h_answer_dist : Obs.Metrics.histogram;
  agg : Exec_stats.t; (* reused aggregate returned by [stream_stats] *)
  admission : Admission.estimate option; (* computed iff an admission limit is set *)
  rejection : Admission.rejection option; (* Some: born rejected, no evaluators *)
  gc0 : Gc.stat; (* [Gc.quick_stat] at open — baseline of the collection-count deltas *)
  gcw0 : float * float; (* [Gc.counters] (minor, major) at open — word counts accurate
                           between collections, unlike [quick_stat]'s *)
  cpu0 : float; (* [Sys.time] at open — process CPU seconds *)
  tenant : string option; (* audit attribution of a served query (omega_serve) *)
  mutable audited : bool; (* audit record emitted (close is idempotent) *)
}

(* A conjunct answer as a variable binding.  A conjunct with two constants
   contributes an empty binding (its satisfaction is checked by the conjunct
   evaluator itself). *)
let binding_of_answer (c : Query.conjunct) (a : Conjunct.answer) =
  let of_term term value =
    match (term : Query.term) with Query.Var v -> [ (v, value) ] | Query.Const _ -> []
  in
  Ranked_join.binding_of (of_term c.subj a.x @ of_term c.obj a.y)

let open_query ~graph ~ontology ?(options = Options.default) ?governor ?tenant (q : Query.t) =
  (match Query.validate q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.open_query: " ^ msg));
  (* build the index here, before any conjunct opens *)
  Graph.freeze graph;
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let registry = Obs.Metrics.create () in
  (* Every conjunct is planned (oriented, compiled, its strategy and seam
     chosen) here, once, on the calling domain: admission, evaluation,
     EXPLAIN-style audit and the query class all read these plans. *)
  let plans = Plan.of_query ~graph ~ontology ~options q in
  (* Admission control: when a limit is configured, vet the query before
     building any evaluation state.  The estimate reads the plans (no edge
     scans, no failpoints); a rejected stream is born with no evaluators,
     so [edges_scanned] stays exactly 0. *)
  let admission, rejection =
    match (options.Options.max_states, options.Options.max_product_est) with
    | None, None -> (None, None)
    | _ ->
      let est, rejection = Admission.vet ~graph ~options plans in
      (Some est, rejection)
  in
  let closed =
    {
      graph;
      query = q;
      ontology;
      options;
      head = q.head;
      plans;
      evaluators = [];
      pull = (fun () -> None);
      projected = Hashtbl.create 1;
      governor;
      registry;
      h_answer_dist = Obs.Metrics.histogram registry "answer_distance";
      agg = Exec_stats.create ();
      admission;
      rejection;
      gc0 = Gc.quick_stat ();
      gcw0 = (let mi, _, ma = Gc.counters () in (mi, ma));
      cpu0 = Sys.time ();
      tenant;
      audited = false;
    }
  in
  if rejection <> None then begin
    (match rejection with
    | Some r when Obs.Flight.enabled () ->
      Obs.Flight.instant ~cat:"admission"
        ~args:
          [
            ("kind", Obs.Flight.Str (Admission.kind_string r.Admission.kind));
            ("limit", Obs.Flight.Num r.Admission.limit);
            ("actual", Obs.Flight.Num r.Admission.actual);
          ]
        "admission.reject"
    | _ -> ());
    closed
  end
  else begin
    (* The recorder's rings are per-process but retained for the query's
       duration: charge their (fixed) footprint once so a tight memory
       budget accounts for recording overhead too. *)
    if Obs.Flight.enabled () then Governor.charge_mem governor (Obs.Flight.approx_bytes ());
    (* Opening can itself hit a failpoint (e.g. the ontology lookups of RELAX
       seeding): the stream is then born already tripped rather than raising
       through the public surface. *)
    match
      let evaluators =
        List.map
          (fun p ->
            (p.Plan.conjunct, Evaluator.of_plan ~graph ~ontology ~options ~governor ~metrics:registry p))
          plans
      in
      let stream_of (c, ev) () =
        match Evaluator.next ev with
        | Some a ->
          let wits = match a.Conjunct.witness with Some w -> [ w ] | None -> [] in
          Some (binding_of_answer c a, a.Conjunct.dist, wits)
        | None -> None
      in
      let pull =
        match evaluators with
        | [ single ] -> stream_of single
        | several ->
          let join = Ranked_join.create ~governor ~metrics:registry (List.map stream_of several) in
          fun () -> Ranked_join.next join
      in
      (List.map snd evaluators, pull)
    with
    | evaluators, pull -> { closed with evaluators; pull; projected = Hashtbl.create 64 }
    | exception Failpoints.Injected name ->
      Governor.fault governor name;
      closed
  end

let status st =
  match st.rejection with
  | Some r -> Rejected r
  | None -> (
    match Governor.termination st.governor with
    | Governor.Completed -> Completed
    | Governor.Exhausted { reason; elapsed_ns; tuples; answers } ->
      Exhausted { reason; elapsed_ns; tuples; answers })

(* Aggregated once per stream into a record the stream owns and reuses:
   polling mid-stream cannot perturb the per-conjunct accumulators (the
   evaluators' own [stats] are read-only merges).  Callers wanting a stable
   snapshot take an [Exec_stats.copy]. *)
let stream_stats st =
  Exec_stats.reset st.agg;
  List.iter (fun ev -> Exec_stats.merge_into st.agg (Evaluator.stats ev)) st.evaluators;
  (* The resource-safety counters live on the stream aggregate only: the
     governor owns the memory high-water mark and degradation counts, the
     admission estimate was computed once at open (0 when unvetted). *)
  st.agg.Exec_stats.mem_bytes_peak <- Governor.mem_peak st.governor;
  st.agg.Exec_stats.admission_est_states <-
    (match st.admission with Some e -> e.Admission.total_states | None -> 0);
  let drops_prov, shrinks_psi = Governor.degrade_counts st.governor in
  st.agg.Exec_stats.degrade_drop_provenance <- drops_prov;
  st.agg.Exec_stats.degrade_shrink_psi <- shrinks_psi;
  (* GC telemetry, likewise stream-level: deltas against the open-time
     baseline, so a query's allocation pressure reads directly off its
     stats (the conjunct evaluators never touch these fields) *)
  let gc = Gc.quick_stat () in
  let minor0, major0 = st.gcw0 in
  let minor, _, major = Gc.counters () in
  st.agg.Exec_stats.gc_minor_words <- int_of_float (minor -. minor0);
  st.agg.Exec_stats.gc_major_words <- int_of_float (major -. major0);
  st.agg.Exec_stats.gc_minor_collections <- gc.Gc.minor_collections - st.gc0.Gc.minor_collections;
  st.agg.Exec_stats.gc_major_collections <- gc.Gc.major_collections - st.gc0.Gc.major_collections;
  st.agg

let mode_string : Query.mode -> string = function
  | Query.Exact -> "exact"
  | Query.Approx -> "approx"
  | Query.Relax -> "relax"

(* The SLO accounting key: which operator family (and which expensive
   structural features) this query exercises. *)
let query_class st =
  let base =
    match List.sort_uniq compare (List.map (fun p -> p.Plan.conjunct.Query.cmode) st.plans) with
    | [ mode ] -> mode_string mode
    | _ -> "mixed"
  in
  let decomposed = List.exists (fun p -> p.Plan.strategy = Plan.Decomposed) st.plans in
  let case2 = List.exists (fun p -> p.Plan.reversed) st.plans in
  base ^ (if decomposed then "+decomposed" else "") ^ if case2 then "+case2" else ""

let automaton_name : Query.mode -> string = function
  | Query.Exact -> "M_R"
  | Query.Approx -> "A_R"
  | Query.Relax -> "M^K_R"

(* The EXPLAIN rendering of one conjunct's plan.  Counting a RELAX
   constant's ancestor seeds goes through [Conjunct.relax_ancestor_seeds],
   as opening the conjunct does. *)
let conjunct_plan ~graph ~ontology ~options ~index (p : Plan.t) =
  let c = p.Plan.conjunct in
  let phi = p.Plan.phi in
  let strategy =
    match p.Plan.strategy with
    | Plan.Decomposed -> Printf.sprintf "decomposed(%d, phi=%d)" (List.length p.Plan.parts) phi
    | Plan.Distance_aware -> Printf.sprintf "distance-aware(phi=%d)" phi
    | Plan.Plain -> "plain"
  in
  let seeding =
    match p.Plan.seeding with
    | Plan.Empty { name; on_object = true } ->
      Printf.sprintf "empty (unknown object constant %S)" name
    | Plan.Empty { name; on_object = false } -> Printf.sprintf "empty (unknown constant %S)" name
    | Plan.Constant { name; _ } -> Printf.sprintf "constant %S" name
    | Plan.Ancestors { name; oid } ->
      let seeds =
        Conjunct.relax_ancestor_seeds ~graph ~ontology ~beta:options.Options.costs.beta oid
      in
      Printf.sprintf "constant+ancestors %S (%d seeds)" name (List.length seeds)
    | Plan.Variable { batch_size } ->
      if batch_size = max_int then "up-front" else Printf.sprintf "batched(%d)" batch_size
  in
  let parts =
    if p.Plan.strategy <> Plan.Decomposed then []
    else
      List.map
        (fun (part : Plan.part) ->
          {
            Obs.Explain.p_regex = Format.asprintf "%a" Rpq_regex.Regex.pp part.Plan.source;
            p_states = Automaton.Nfa.n_states part.Plan.nfa;
            p_transitions = Automaton.Nfa.n_transitions part.Plan.nfa;
          })
        p.Plan.parts
  in
  {
    Obs.Explain.index;
    (* [pp] prefixes the mode itself, so the source is the bare triple *)
    source = Format.asprintf "%a" Query.pp_conjunct { c with Query.cmode = Query.Exact };
    mode = mode_string c.Query.cmode;
    automaton = automaton_name c.Query.cmode;
    states = Automaton.Nfa.n_states p.Plan.automaton;
    transitions = Automaton.Nfa.n_transitions p.Plan.automaton;
    reversed = p.Plan.reversed;
    strategy;
    seeding;
    parts;
    counters = [];
  }

let explain_conjuncts ~graph ~ontology ~options plans =
  List.mapi (fun i p -> conjunct_plan ~graph ~ontology ~options ~index:(i + 1) p) plans

(* One line of physical plan per conjunct, rendered from the stream's plans
   — only when an audit record is actually being built. *)
let plan_summary st =
  if st.rejection <> None then "rejected"
  else
    String.concat "; "
      (List.map
         (fun (p : Obs.Explain.conjunct_plan) ->
           Printf.sprintf "%d:%s/%s(%ds,%dt)/%s/%s%s" p.index p.mode p.automaton p.states
             p.transitions p.strategy p.seeding
             (if p.reversed then "/rev" else ""))
         (explain_conjuncts ~graph:st.graph ~ontology:st.ontology ~options:st.options st.plans))

let audit_record ?flight st =
  let stats = stream_stats st in
  let qtext = Format.asprintf "%a" Query.pp st.query in
  let termination, reason =
    match status st with
    | Completed -> ("completed", None)
    | Exhausted { reason; _ } -> ("exhausted", Some (Governor.reason_string reason))
    | Rejected r -> ("rejected", Some (Admission.kind_string r.Admission.kind))
  in
  {
    Obs.Audit.ts_ns = !Obs.Clock.now_ns ();
    query_hash = Obs.Audit.hash qtext;
    query = qtext;
    query_class = query_class st;
    plan = plan_summary st;
    termination;
    reason;
    answers = Governor.answers st.governor;
    wall_ns = Governor.elapsed_ns st.governor;
    cpu_ns = int_of_float ((Sys.time () -. st.cpu0) *. 1e9);
    est_states = (match st.admission with Some e -> e.Admission.total_states | None -> 0);
    est_product = (match st.admission with Some e -> e.Admission.total_product_est | None -> 0);
    actual_tuples = Governor.tuples st.governor;
    domains = st.options.Options.domains;
    (* every query runs on one domain: the schema's shard fields stay, so
       older logs still load *)
    shards = [];
    merge_wait_ns = 0;
    imbalance_pct = 0;
    flight;
    tenant = st.tenant;
    stats = Exec_stats.to_assoc stats;
    gc =
      [
        ("minor_words", stats.Exec_stats.gc_minor_words);
        ("major_words", stats.Exec_stats.gc_major_words);
        ("minor_collections", stats.Exec_stats.gc_minor_collections);
        ("major_collections", stats.Exec_stats.gc_major_collections);
      ];
  }

(* Release whatever outlives the stream — today, the ledger charges of a
   canonical evaluator's staged answers.  Idempotent; called on every
   terminal path of [next], and available to consumers abandoning a
   stream mid-way.

   Also the audit log's emission point: one record per stream, once, when
   the global sink is enabled — a single flag check per query otherwise. *)
let close st =
  List.iter Evaluator.close st.evaluators;
  if (Obs.Audit.enabled () || Obs.Flight.enabled ()) && not st.audited then begin
    st.audited <- true;
    (* the flight dump rides the same once-per-stream seam; when both sinks
       are live the audit record cross-links to the dump *)
    let flight =
      if Obs.Flight.enabled () then
        match Obs.Flight.dump_target () with
        | None -> None
        | Some path -> (
          try
            let events = Obs.Flight.dump path in
            let _, dropped = Obs.Flight.stats () in
            Some { Obs.Audit.f_path = path; f_events = events; f_dropped = dropped }
          with Sys_error _ -> None)
      else None
    in
    if Obs.Audit.enabled () then Obs.Audit.emit (audit_record ?flight st)
  end

let rec next st =
  if st.rejection <> None then begin
    (* a rejected stream has nothing to release, but closing it here means
       rejections reach the audit log through the same single seam *)
    close st;
    None
  end
  else if not (Governor.poll st.governor) then begin
    close st;
    None
  end
  else
    match st.pull () with
    | exception Failpoints.Injected name ->
      Governor.fault st.governor name;
      close st;
      None
    | None ->
      close st;
      None
    | Some (binding, distance, witnesses) ->
      let values =
        List.map
          (fun v ->
            match List.assoc_opt v binding with
            | Some oid -> Graph.node_label st.graph oid
            | None ->
              Invariant.fail
                "Engine.next: head variable ?%s is unbound in the joined binding (Query.validate \
                 guarantees every head variable appears in the body)"
                v)
          st.head
      in
      if Hashtbl.mem st.projected values then next st
      else begin
        Hashtbl.add st.projected values ();
        Governor.charge_mem st.governor Mem.answer_entry_bytes;
        Governor.note_answer st.governor;
        Obs.Metrics.observe st.h_answer_dist distance;
        Some { bindings = List.combine st.head values; distance; witnesses }
      end

let governor st = st.governor
let admission st = st.admission

let metrics st =
  Exec_stats.record_into st.registry (stream_stats st);
  st.registry

let drain ?limit st =
  let rec collect acc k =
    if k <= 0 then List.rev acc
    else match next st with Some a -> collect (a :: acc) (k - 1) | None -> List.rev acc
  in
  let answers = collect [] (Option.value limit ~default:max_int) in
  (* a limit can stop collection before [next] reaches a terminal path:
     close here so held answers are released and the audit record is
     emitted exactly once per drained stream *)
  close st;
  { answers; termination = status st; stats = Exec_stats.copy (stream_stats st); metrics = metrics st }

let run ~graph ~ontology ?options ?limit q =
  let options = match options with Some o -> o | None -> Options.default in
  let governor = Options.governor ?limit options in
  let st = open_query ~graph ~ontology ~options ~governor q in
  drain ?limit st

let run_string ~graph ~ontology ?options ?limit s =
  match Query_parser.parse_result s with
  | Error msg -> Error msg
  | Ok q -> Ok (run ~graph ~ontology ?options ?limit q)

let explain ~graph ~ontology ?(options = Options.default) (q : Query.t) =
  (match Query.validate q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.explain: " ^ msg));
  let conjuncts = explain_conjuncts ~graph ~ontology ~options (Plan.of_query ~graph ~ontology ~options q) in
  let join =
    match q.conjuncts with
    | [ _ ] -> "single-conjunct"
    | cs -> Printf.sprintf "ranked-join(%d)" (List.length cs)
  in
  let governor =
    [
      ( "timeout",
        match options.Options.timeout_ns with
        | None -> "none"
        | Some ns -> Printf.sprintf "%dms" (ns / 1_000_000) );
      ( "tuples",
        match options.Options.max_tuples with None -> "none" | Some n -> string_of_int n );
      ( "answers",
        match options.Options.max_answers with None -> "none" | Some n -> string_of_int n );
      ( "memory",
        match options.Options.max_memory_bytes with
        | None -> "none"
        | Some b -> Printf.sprintf "%d bytes" b );
      ( "admission",
        match (options.Options.max_states, options.Options.max_product_est) with
        | None, None -> "none"
        | ms, mp ->
          let part name = function None -> [] | Some n -> [ Printf.sprintf "%s=%d" name n ] in
          String.concat ", " (part "max-states" ms @ part "max-product-est" mp) );
    ]
  in
  {
    Obs.Explain.query = Format.asprintf "%a" Query.pp q;
    head = q.head;
    join;
    governor;
    conjuncts;
    analysis = [];
    profile = None;
  }

let annotate st (plan : Obs.Explain.plan) =
  (* A born-tripped stream has no evaluators; leave its counters empty. *)
  (try
     List.iter2
       (fun (cp : Obs.Explain.conjunct_plan) ev ->
         cp.Obs.Explain.counters <- Exec_stats.to_assoc (Exec_stats.copy (Evaluator.stats ev)))
       plan.Obs.Explain.conjuncts st.evaluators
   with Invalid_argument _ -> ());
  plan.Obs.Explain.analysis <-
    [
      ("termination", Format.asprintf "%a" pp_termination (status st));
      ("answers", string_of_int (Governor.answers st.governor));
      ("tuples", string_of_int (Governor.tuples st.governor));
      ("mem_bytes_peak", string_of_int (Governor.mem_peak st.governor));
    ]
    @ (match st.admission with
      | None -> []
      | Some e -> [ ("admission", Format.asprintf "%a" Admission.pp_estimate e) ])
    @
    (let drops_prov, shrinks_psi = Governor.degrade_counts st.governor in
     if drops_prov > 0 || shrinks_psi > 0 then
       [ ("degraded", Printf.sprintf "drop-provenance:%d, shrink-psi:%d" drops_prov shrinks_psi) ]
     else []);
  plan.Obs.Explain.profile <- Some (Obs.Profile.of_metrics (metrics st))
