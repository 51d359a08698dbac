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

(* A parallel conjunct: a [Par] domain pool whose shards each run a plain
   [Conjunct] over a partition of the seed vertices. *)
type parallel = {
  par : Par.t;
  p_agg : Exec_stats.t; (* reused aggregate returned by [stats] *)
}

type t = Plain of Conjunct.t | Levelled of levelled | Parallel of parallel

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
                ~suppress:lev.emitted lev.plan part,
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

(* A plan with [domains > 1] is a plain [(?X, R, ?Y)] conjunct: seeds split
   [oid mod domains] across shards.  Per-seed explorations are independent
   (the visited and answer keys both carry the seed vertex), so a shard
   emits exactly the full conjunct's answers whose [x] it owns, and its
   seeder frontier is its distance-0 watermark.  Shards open the plan's
   part on their own domains but share its automaton, which is read-only:
   a worker compiles and interns nothing.  Every other plan runs here, on
   the calling domain. *)
let of_plan ~graph ~ontology ~options ?governor ?metrics (plan : Plan.t) =
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let domains = plan.Plan.domains in
  if domains > 1 then
    let build ~shard ~governor ~metrics ~mark =
      let c =
        Conjunct.open_ ~graph ~ontology ~options ~governor ~metrics
          ~seed_filter:(fun oid -> oid mod domains = shard)
          ~frontier:mark plan (List.hd plan.Plan.parts)
      in
      ((fun () -> Conjunct.get_next c), fun () -> Conjunct.stats c)
    in
    Parallel
      {
        par = Par.create ~domains ~governor ~metrics ~label:"seed-shard" ~build ();
        p_agg = Exec_stats.create ();
      }
  else
    match plan.Plan.strategy with
    | Plan.Plain ->
      Plain (Conjunct.open_ ~graph ~ontology ~options ~governor ~metrics plan (List.hd plan.Plan.parts))
    | Plan.Distance_aware | Plan.Decomposed ->
      Levelled
        {
          graph;
          ontology;
          options;
          governor;
          metrics;
          plan;
          emitted = Hashtbl.create 64;
          psi = 0;
          remaining = plan.Plan.parts;
          current = None;
          current_count = 0;
          part_start_ns = 0;
          counts = [];
          level_complete = true;
          exhausted = false;
          stats = Exec_stats.create ();
          agg = Exec_stats.create ();
        }

let create ~graph ~ontology ~options ?governor ?metrics conjunct =
  of_plan ~graph ~ontology ~options ?governor ?metrics (Plan.make ~graph ~ontology ~options conjunct)
