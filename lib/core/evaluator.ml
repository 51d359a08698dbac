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
  plan : Plan.t;
  emitted : (int * int, int) Hashtbl.t;
  mutable psi : int;
  mutable remaining : Plan.part list; (* parts not yet run at this level *)
  mutable current : (Conjunct.t * Plan.part) option;
  mutable current_count : int;
  mutable part_start_ns : int; (* clock sample at the current part's open *)
  mutable counts : (Plan.part * int) list; (* finished parts, this level *)
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

(* The sequential strategies (Plain/Levelled) — the whole story when the
   plan's seam is [Sequential], and the per-shard evaluator when it is not.
   [seed_filter] partitions the seed universe; [parts] narrows the plan's
   parts (a part-shard runs only its own). *)
let create_seq ~graph ~ontology ~options ~governor ~metrics ?seed_filter ?frontier ?parts
    (plan : Plan.t) =
  match plan.Plan.strategy with
  | Plan.Plain ->
    Plain
      (Conjunct.open_ ~graph ~ontology ~options ~governor ~metrics ?seed_filter ?frontier plan
         (List.hd plan.Plan.parts))
  | Plan.Distance_aware | Plan.Decomposed ->
    Levelled
      {
        graph;
        ontology;
        options;
        governor;
        metrics;
        seed_filter;
        plan;
        emitted = Hashtbl.create 64;
        psi = 0;
        remaining = Option.value parts ~default:plan.Plan.parts;
        current = None;
        current_count = 0;
        part_start_ns = 0;
        counts = [];
        level_complete = true;
        exhausted = false;
        stats = Exec_stats.create ();
        agg = Exec_stats.create ();
      }

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
        lev.part_start_ns <- !Obs.Clock.now_ns ();
        lev.current <-
          Some
            ( Conjunct.open_ ~graph:lev.graph ~ontology:lev.ontology ~options:lev.options
                ~governor:lev.governor ~metrics:lev.metrics ~ceiling:lev.psi
                ~suppress:lev.emitted ?seed_filter:lev.seed_filter lev.plan part,
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
          lev.psi <- lev.psi + lev.plan.Plan.phi;
          if Obs.Flight.enabled () then
            Obs.Flight.instant ~cat:"psi" ~args:[ ("psi", Obs.Flight.Num lev.psi) ] "psi.level";
          next_levelled lev
        end)

let next = function
  | Plain c -> Conjunct.get_next c
  | Levelled lev -> next_levelled lev
  | Parallel p -> Par.next p.par

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

(* The parallel dispatch, on the plan's seam:
   - seed-sharding, for [(?X, R, ?Y)] conjuncts: seeds split [oid mod n]
     across shards.  Per-seed explorations are independent (the visited and
     answer keys both carry the seed vertex), so a shard emits exactly the
     full conjunct's answers whose [x] it owns and no cross-shard
     deduplication is needed;
   - part-sharding, for constant-seeded decomposed conjuncts: alternation
     parts split [index mod n] across shards, each shard levelling its own
     parts with its own emitted-table — so the merge deduplicates [(x, y)]
     across shards, keeping the first (cheapest) sealed occurrence.
   Shards open the plan's parts on their own domains but share its
   automata, which are read-only: a worker compiles and interns nothing. *)
let of_plan ~graph ~ontology ~options ?governor ?metrics (plan : Plan.t) =
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  match plan.Plan.seam with
  | Plan.Sequential -> create_seq ~graph ~ontology ~options ~governor ~metrics plan
  | Plan.Seed_shard | Plan.Part_shard ->
    let domains = plan.Plan.domains in
    let seed_shard = plan.Plan.seam = Plan.Seed_shard in
    (* a psi-levelled shard's emission order is only non-decreasing up to
       phi - 1 across level boundaries; a plain shard's is exact *)
    let slack = if plan.Plan.strategy = Plan.Plain then 0 else plan.Plan.phi - 1 in
    let build ~shard ~governor ~metrics ~mark =
      let ev =
        if seed_shard then
          (* a plain shard's seeder frontier is its distance-0 watermark
             (only a [Plain] plan reads [frontier]) *)
          create_seq ~graph ~ontology ~options ~governor ~metrics
            ~seed_filter:(fun oid -> oid mod domains = shard)
            ~frontier:mark plan
        else
          create_seq ~graph ~ontology ~options ~governor ~metrics
            ~parts:(List.filteri (fun i _ -> i mod domains = shard) plan.Plan.parts)
            plan
      in
      ((fun () -> next ev), fun () -> stats ev)
    in
    Parallel
      {
        par =
          Par.create ~domains ~slack ~governor ~metrics
            ~label:(if seed_shard then "seed-shard" else "part-shard")
            ~dedup:(not seed_shard) ~build ();
        p_agg = Exec_stats.create ();
      }

let create ~graph ~ontology ~options ?governor ?metrics conjunct =
  of_plan ~graph ~ontology ~options ?governor ?metrics (Plan.make ~graph ~ontology ~options conjunct)
