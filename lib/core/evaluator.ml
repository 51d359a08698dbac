module Regex = Rpq_regex.Regex

(* Level-wise evaluation shared by distance-aware retrieval and alternation
   decomposition: run each part (one sub-automaton; a single part for plain
   distance-aware mode) with ceiling ψ, stream its answers lazily, then move
   to the next part; when the level is done, bump ψ by φ and reorder the
   parts by increasing answer count of the previous level (§4.3).  Answers
   already emitted at earlier levels are suppressed via the shared [emitted]
   table, so each (x, y) pair surfaces once, at its smallest distance.

   With uniform operation costs (the paper's setting) every new answer at
   level ψ has distance exactly ψ, so the global emission order is exact;
   with heterogeneous costs answers within one level may interleave across
   parts by at most φ - 1. *)
type levelled = {
  graph : Graphstore.Graph.t;
  ontology : Ontology.t;
  options : Options.t;
  governor : Governor.t;
  metrics : Obs.Metrics.t; (* shared with every part this evaluator opens *)
  seed_filter : (int -> bool) option; (* shard partition, threaded to every part open *)
  emitted : (int * int, int) Hashtbl.t;
  phi : int;
  mutable psi : int;
  mutable remaining : Query.conjunct list; (* parts not yet run at this level *)
  mutable current : (Conjunct.t * Query.conjunct) option;
  mutable current_count : int;
  mutable part_start_ns : int; (* clock sample at the current part's open *)
  mutable counts : (Query.conjunct * int) list; (* finished parts, this level *)
  mutable level_complete : bool; (* no part pruned anything so far this level *)
  mutable exhausted : bool;
  stats : Exec_stats.t;
  agg : Exec_stats.t; (* reused aggregate returned by [stats] *)
}

(* A parallel conjunct: a [Par] domain pool whose shards each run an
   ordinary sequential evaluator ([create_seq]) over a partition of the
   work — of the seed vertices for [(?X, R, ?Y)] conjuncts, of the
   top-level alternation parts for constant-seeded decomposed ones. *)
type parallel = {
  par : Par.t;
  p_agg : Exec_stats.t; (* reused aggregate returned by [stats] *)
}

type t = Plain of Conjunct.t | Levelled of levelled | Parallel of parallel

(* The sequential strategies (Plain/Levelled) — the whole story when
   [options.domains = 1], and the per-shard evaluator when it is not.
   [seed_filter] partitions the seed universe; [parts] overrides the
   decomposition part list (a shard runs only its own parts). *)
let create_seq ~graph ~ontology ~options ~governor ~metrics ?seed_filter ?parts
    (conjunct : Query.conjunct) =
  let alternatives = Regex.top_level_alternatives conjunct.regex in
  let decomposed = options.Options.decompose && List.length alternatives > 1 in
  if decomposed || options.Options.distance_aware then begin
    let parts =
      match parts with
      | Some ps -> ps
      | None ->
        if decomposed then List.map (fun regex -> { conjunct with Query.regex }) alternatives
        else [ conjunct ]
    in
    Levelled
      {
        graph;
        ontology;
        options;
        governor;
        metrics;
        seed_filter;
        emitted = Hashtbl.create 64;
        phi = Options.phi options conjunct.cmode;
        psi = 0;
        remaining = parts;
        current = None;
        current_count = 0;
        part_start_ns = 0;
        counts = [];
        level_complete = true;
        exhausted = false;
        stats = Exec_stats.create ();
        agg = Exec_stats.create ();
      }
  end
  else Plain (Conjunct.open_ ~graph ~ontology ~options ~governor ~metrics ?seed_filter conjunct)

let finish_part lev eval part =
  Exec_stats.merge_into lev.stats (Conjunct.stats eval);
  lev.stats.restarts <- lev.stats.restarts + 1;
  if Conjunct.pruned eval then lev.level_complete <- false;
  (* the discarded part's structures are garbage from here on — release
     their memory-budget charges so the estimate tracks the live footprint *)
  Conjunct.close eval;
  if Obs.Flight.enabled () then
    Obs.Flight.complete ~cat:"psi" ~start_ns:lev.part_start_ns
      ~args:[ ("psi", Obs.Flight.Num lev.psi); ("answers", Obs.Flight.Num lev.current_count) ]
      "psi.part";
  lev.counts <- (part, lev.current_count) :: lev.counts;
  lev.current <- None;
  lev.current_count <- 0

let rec next_levelled lev =
  (* The restart loop's own governor poll: a tripped budget/deadline stops
     the ψ escalation before the next part opens or the next level starts —
     [exhausted] stays false, so the distinction between "complete" and
     "cut off" is readable from the governor's termination. *)
  if lev.exhausted || not (Governor.poll lev.governor) then None
  else
    match lev.current with
    | Some (eval, part) -> (
      match Conjunct.get_next eval with
      | Some a ->
        lev.current_count <- lev.current_count + 1;
        Some a
      | None when Governor.tripped lev.governor <> None ->
        (* cut mid-part: do not treat the part as finished (its counts
           would skew the reorder) — the top-of-function poll returns None *)
        next_levelled lev
      | None ->
        finish_part lev eval part;
        next_levelled lev)
    | None -> (
      match lev.remaining with
      | part :: rest ->
        lev.remaining <- rest;
        lev.part_start_ns <- !Exec_stats.now_ns ();
        lev.current <-
          Some
            ( Conjunct.open_ ~graph:lev.graph ~ontology:lev.ontology ~options:lev.options
                ~governor:lev.governor ~metrics:lev.metrics ~ceiling:lev.psi
                ~suppress:lev.emitted ?seed_filter:lev.seed_filter part,
              part );
        next_levelled lev
      | [] ->
        (* level finished *)
        if lev.level_complete then begin
          lev.exhausted <- true;
          None
        end
        else if Governor.shrink_psi lev.governor then begin
          (* stage-2 memory degradation: decline the psi escalation.  Every
             answer of distance <= psi is already out, so stopping here ends
             the query with an exact ranked prefix; [note_shrink_psi] counts
             the declined escalation and trips [Memory_budget]. *)
          Governor.note_shrink_psi lev.governor;
          None
        end
        else begin
          lev.remaining <-
            List.map fst (List.stable_sort (fun (_, n1) (_, n2) -> compare n1 n2) (List.rev lev.counts));
          lev.counts <- [];
          lev.level_complete <- true;
          lev.psi <- lev.psi + lev.phi;
          if Obs.Flight.enabled () then
            Obs.Flight.instant ~cat:"psi" ~args:[ ("psi", Obs.Flight.Num lev.psi) ] "psi.level";
          next_levelled lev
        end)

let next = function
  | Plain c -> Conjunct.get_next c
  | Levelled lev -> next_levelled lev
  | Parallel p -> Par.next p.par

let take t k =
  let rec loop acc k =
    if k <= 0 then List.rev acc
    else match next t with Some a -> loop (a :: acc) (k - 1) | None -> List.rev acc
  in
  loop [] k

(* The levelled aggregate is computed into a record owned and reused by the
   evaluator — polling stats mid-stream therefore allocates nothing and
   perturbs nothing.  Callers wanting a snapshot use [Exec_stats.copy]. *)
let stats = function
  | Plain c -> Conjunct.stats c
  | Levelled lev ->
    Exec_stats.reset lev.agg;
    Exec_stats.merge_into lev.agg lev.stats;
    (match lev.current with
    | Some (eval, _) -> Exec_stats.merge_into lev.agg (Conjunct.stats eval)
    | None -> ());
    lev.agg
  | Parallel p ->
    (* still-running shards are excluded (their records live on other
       domains); once the stream has ended every shard is in *)
    Exec_stats.reset p.p_agg;
    Par.merge_stats p.par ~into:p.p_agg;
    p.p_agg.Exec_stats.par_shards <- Par.shards p.par;
    p.p_agg

let close = function
  | Plain _ | Levelled _ -> ()
  | Parallel p -> Par.close p.par

let shard_report = function
  | Plain _ | Levelled _ -> []
  | Parallel p -> Par.shard_report p.par

(* The parallel dispatch.  Two partition seams exist:
   - seed-sharding, for [(?X, R, ?Y)] conjuncts: seeds split [oid mod n]
     across shards.  Per-seed explorations are independent (the visited and
     answer keys both carry the seed vertex), so a shard emits exactly the
     full conjunct's answers whose [x] it owns and no cross-shard
     deduplication is needed;
   - part-sharding, for constant-seeded conjuncts whose query decomposes
     ([options.decompose] with a top-level alternation): alternation parts
     split [index mod n] across shards, each shard levelling its own parts
     with its own emitted-table — so the merge deduplicates [(x, y)] across
     shards, keeping the first (cheapest) sealed occurrence.
   Everything else — constant-seeded, undecomposed — stays sequential
   whatever [options.domains] says: a single-source Dijkstra offers no
   partition with these guarantees. *)
let create ~graph ~ontology ~options ?governor ?metrics (conjunct : Query.conjunct) =
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let alternatives = Regex.top_level_alternatives conjunct.regex in
  let decomposed = options.Options.decompose && List.length alternatives > 1 in
  let seed_parallel =
    match (conjunct.Query.subj, conjunct.Query.obj) with
    | Query.Var _, Query.Var _ -> true
    | _ -> false
  in
  let part_parallel = (not seed_parallel) && decomposed in
  let domains =
    if seed_parallel then options.Options.domains
    else if part_parallel then min options.Options.domains (List.length alternatives)
    else 1
  in
  if domains <= 1 then create_seq ~graph ~ontology ~options ~governor ~metrics conjunct
  else begin
    let slack =
      (* a psi-levelled shard's emission order is only non-decreasing up to
         phi - 1 across level boundaries; a plain shard's is exact *)
      if decomposed || options.Options.distance_aware then
        Options.phi options conjunct.Query.cmode - 1
      else 0
    in
    let all_parts =
      if decomposed then List.map (fun regex -> { conjunct with Query.regex }) alternatives
      else [ conjunct ]
    in
    let build ~shard ~governor ~metrics =
      let ev =
        if seed_parallel then
          create_seq ~graph ~ontology ~options ~governor ~metrics
            ~seed_filter:(fun oid -> oid mod domains = shard)
            conjunct
        else
          create_seq ~graph ~ontology ~options ~governor ~metrics
            ~parts:(List.filteri (fun i _ -> i mod domains = shard) all_parts)
            conjunct
      in
      ((fun () -> next ev), fun () -> stats ev)
    in
    Parallel
      {
        par =
          Par.create ~domains ~slack ~governor ~metrics
            ~label:(if seed_parallel then "seed-shard" else "part-shard")
            ~dedup:part_parallel ~queue_cap:options.Options.par_queue_cap ~build ();
        p_agg = Exec_stats.create ();
      }
  end

let automaton_name : Automaton.Compile.mode -> string = function
  | Automaton.Compile.Exact -> "M_R"
  | Automaton.Compile.Approx _ -> "A_R"
  | Automaton.Compile.Relax _ -> "M^K_R"

let mode_string : Query.mode -> string = function
  | Query.Exact -> "exact"
  | Query.Approx -> "approx"
  | Query.Relax -> "relax"

(* The EXPLAIN view of [create]: reproduce the strategy choice and compile
   the automata, without opening any evaluation state. *)
let describe ~graph ~ontology ~options ~index (conjunct : Query.conjunct) =
  let nfa, seeding, reversed = Conjunct.describe ~graph ~ontology ~options conjunct in
  let mode = Options.compile_mode options conjunct.Query.cmode in
  let alternatives = Regex.top_level_alternatives conjunct.Query.regex in
  let decomposed = options.Options.decompose && List.length alternatives > 1 in
  let phi = Options.phi options conjunct.Query.cmode in
  let strategy =
    if decomposed then Printf.sprintf "decomposed(%d, phi=%d)" (List.length alternatives) phi
    else if options.Options.distance_aware then Printf.sprintf "distance-aware(phi=%d)" phi
    else "plain"
  in
  let parts =
    if not decomposed then []
    else
      List.map
        (fun regex ->
          let pnfa, _, _ =
            Conjunct.describe ~graph ~ontology ~options { conjunct with Query.regex }
          in
          {
            Obs.Explain.p_regex = Format.asprintf "%a" Regex.pp regex;
            p_states = Automaton.Nfa.n_states pnfa;
            p_transitions = Automaton.Nfa.n_transitions pnfa;
          })
        alternatives
  in
  {
    Obs.Explain.index;
    (* [pp] prefixes the mode itself, so the source is the bare triple *)
    source = Format.asprintf "%a" Query.pp_conjunct { conjunct with Query.cmode = Query.Exact };
    mode = mode_string conjunct.Query.cmode;
    automaton = automaton_name mode;
    states = Automaton.Nfa.n_states nfa;
    transitions = Automaton.Nfa.n_transitions nfa;
    reversed;
    strategy;
    seeding;
    parts;
    counters = [];
  }
