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
    Format.fprintf ppf "exhausted (%s) after %d answer(s), %d tuple(s), %.2f ms"
      (Governor.reason_string reason) answers tuples
      (float_of_int elapsed_ns /. 1e6)
  | Rejected r -> Format.fprintf ppf "rejected: %a" Admission.pp_rejection r

type outcome = {
  answers : answer list;
  termination : termination;
  stats : Exec_stats.t;
  metrics : Obs.Metrics.t;
}

let pp_answer ppf a =
  Format.fprintf ppf "dist=%d %s" a.distance
    (String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "?%s=%s" v x) a.bindings))

(* The distribution metrics the engine layers register, next to the scalar
   [Exec_stats.field_names] — together the pinned metrics manifest. *)
let histogram_names =
  [
    "answer_distance";
    "queue_depth";
    "succ_edges";
    "seed_batch_ns";
    "join_combos";
    "pop_distance";
    "ops_insert";
    "ops_delete";
    "ops_subst";
    "ops_relax_beta";
    "ops_relax_gamma";
    "par_merge_wait_ns";
    "par_shard_answers";
    "par_shard_busy_ns";
  ]

type stream = {
  graph : Graph.t;
  query : Query.t;
  ontology : Ontology.t;
  options : Options.t;
  head : string list;
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
  (* build the index here, so no worker domain of a parallel run does *)
  Graph.freeze graph;
  (match options.Options.failpoints with
  | None -> ()
  | Some spec -> (
    match Failpoints.arm_spec spec with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Engine.open_query: " ^ msg)));
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let registry = Obs.Metrics.create () in
  (* Admission control: when a limit is configured, vet the query before
     building any evaluation state.  The estimate is side-effect free
     (automaton compilation only — no edge scans, no failpoints); a
     rejected stream is born with no evaluators, so [edges_scanned] stays
     exactly 0. *)
  let admission, rejection =
    match (options.Options.max_states, options.Options.max_product_est) with
    | None, None -> (None, None)
    | _ ->
      let est, rejection = Admission.vet ~graph ~ontology ~options q in
      (Some est, rejection)
  in
  let closed =
    {
      graph;
      query = q;
      ontology;
      options;
      head = q.head;
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
    | Some r when Obs.Trace.enabled () ->
      Obs.Trace.instant ~cat:"admission"
        ~args:
          [
            ("kind", Obs.Trace.Str (Admission.kind_string r.Admission.kind));
            ("limit", Obs.Trace.Num r.Admission.limit);
            ("actual", Obs.Trace.Num r.Admission.actual);
          ]
        "admission.reject"
    | _ -> ());
    closed
  end
  else begin
    (* The trace ring is per-process but retained for the query's duration:
       charge its (fixed) footprint once so a tight memory budget accounts
       for tracing overhead too. *)
    if Obs.Trace.enabled () then Governor.charge_mem governor (Obs.Trace.approx_bytes ());
    (* Opening can itself hit a failpoint (e.g. the ontology lookups of RELAX
       seeding): the stream is then born already tripped rather than raising
       through the public surface. *)
    match
      let evaluators =
        List.map
          (fun c -> (c, Evaluator.create ~graph ~ontology ~options ~governor ~metrics:registry c))
          q.conjuncts
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

(* The SLO accounting key: which operator family (and which expensive
   structural features) this query exercises. *)
let query_class st =
  let conjuncts = st.query.Query.conjuncts in
  let modes = List.sort_uniq compare (List.map (fun c -> c.Query.cmode) conjuncts) in
  let base =
    match modes with
    | [ Query.Exact ] -> "exact"
    | [ Query.Approx ] -> "approx"
    | [ Query.Relax ] -> "relax"
    | _ -> "mixed"
  in
  let decomposed =
    st.options.Options.decompose
    && List.exists
         (fun c -> List.length (Rpq_regex.Regex.top_level_alternatives c.Query.regex) > 1)
         conjuncts
  in
  let case2 =
    List.exists
      (fun c ->
        match (c.Query.subj, c.Query.obj) with Query.Var _, Query.Const _ -> true | _ -> false)
      conjuncts
  in
  base ^ (if decomposed then "+decomposed" else "") ^ if case2 then "+case2" else ""

(* One line of physical plan per conjunct, from the EXPLAIN machinery.
   Compiles the automata afresh — never called on the evaluation path, only
   when an audit record is actually being built. *)
let plan_summary st =
  if st.rejection <> None then "rejected"
  else
    String.concat "; "
      (List.mapi
         (fun i c ->
           let p =
             Evaluator.describe ~graph:st.graph ~ontology:st.ontology ~options:st.options
               ~index:(i + 1) c
           in
           Printf.sprintf "%d:%s/%s(%ds,%dt)/%s/%s%s" p.Obs.Explain.index p.Obs.Explain.mode
             p.Obs.Explain.automaton p.Obs.Explain.states p.Obs.Explain.transitions
             p.Obs.Explain.strategy p.Obs.Explain.seeding
             (if p.Obs.Explain.reversed then "/rev" else ""))
         st.query.Query.conjuncts)

let audit_record ?flight st =
  let stats = stream_stats st in
  let qtext = Format.asprintf "%a" Query.pp st.query in
  let termination, reason =
    match status st with
    | Completed -> ("completed", None)
    | Exhausted { reason; _ } -> ("exhausted", Some (Governor.reason_string reason))
    | Rejected r -> ("rejected", Some (Admission.kind_string r.Admission.kind))
  in
  let shards =
    let idx = ref 0 in
    List.concat_map
      (fun ev ->
        List.map
          (fun (_, busy, answers) ->
            let s = { Obs.Audit.s_index = !idx; s_busy_ns = busy; s_answers = answers } in
            incr idx;
            s)
          (Evaluator.shard_report ev))
      st.evaluators
  in
  (* probe, don't get-or-create: a sequential stream must not grow parallel
     histograms just because it was audited *)
  let merge_wait_ns =
    if List.mem "par_merge_wait_ns" (Obs.Metrics.names st.registry) then
      Obs.Metrics.h_sum (Obs.Metrics.histogram st.registry "par_merge_wait_ns")
    else 0
  in
  let imbalance_pct =
    (* 100 * max/mean over shard busy times: 100 = perfectly balanced *)
    if stats.Exec_stats.par_shards > 0 && stats.Exec_stats.par_busy_total_ns > 0 then
      stats.Exec_stats.par_busy_max_ns * 100 * stats.Exec_stats.par_shards
      / stats.Exec_stats.par_busy_total_ns
    else 0
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
    shards;
    merge_wait_ns;
    imbalance_pct;
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

(* Release whatever outlives the stream — today, parallel evaluators' domain
   pools.  Idempotent; called on every terminal path of [next], and
   available to consumers abandoning a stream mid-way (a pool left
   unjoined would leak OCaml domains, which are a bounded resource).

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
     close here so abandoned pools are joined and the audit record is
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
  let conjuncts =
    List.mapi (fun i c -> Evaluator.describe ~graph ~ontology ~options ~index:(i + 1) c) q.conjuncts
  in
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
