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

(* The canonical order of [options.domains >= 2] (DESIGN.md "The canonical
   order"): one plain conjunct on the ascending seed walk, its stream
   reordered to ascending (distance, x, y).  The conjunct's stream never
   decreases in distance, so the bucket at [d] is whole — and released
   sorted by (x, y) — once the conjunct yields a larger distance or ends
   complete.  Exact answers come out sooner: every distance-0 answer of a
   seed below the frontier has been pulled, so each time the frontier
   rises the staged exact answers below it are released.  On a trip the
   open bucket is never released, so the emitted prefix stays exact.
   Staged and released answers are charged to the memory ledger until
   they are emitted. *)
type canonical = {
  conj : Conjunct.t;
  c_governor : Governor.t;
  frontier : int ref; (* every exact answer with x below it has been pulled *)
  mutable released : int; (* the frontier at the last exact release *)
  mutable staged : Conjunct.answer list; (* the open bucket, newest first *)
  mutable ready : Conjunct.answer list; (* released, in emission order *)
  mutable held : int; (* answers staged or ready: charged to the ledger *)
}

type t = Plain of Conjunct.t | Levelled of levelled | Canonical of canonical

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

let release c below =
  let out, kept = List.partition below c.staged in
  c.staged <- kept;
  c.ready <-
    List.sort
      (fun (a : Conjunct.answer) (b : Conjunct.answer) ->
        if a.x <> b.x then compare a.x b.x else compare a.y b.y)
      out

let rec next_canonical c =
  match c.ready with
  | a :: rest ->
    c.ready <- rest;
    c.held <- c.held - 1;
    Governor.release_mem c.c_governor Mem.answer_entry_bytes;
    Some a
  | [] -> (
    match Conjunct.get_next c.conj with
    | None ->
      if Governor.tripped c.c_governor = None && c.staged <> [] then begin
        release c (fun _ -> true);
        next_canonical c
      end
      else None
    | Some a ->
      (match c.staged with
      | b :: _ when b.dist < a.dist -> release c (fun _ -> true)
      | _ -> ());
      c.staged <- a :: c.staged;
      c.held <- c.held + 1;
      Governor.charge_mem c.c_governor Mem.answer_entry_bytes;
      if a.dist = 0 && !(c.frontier) > c.released then begin
        c.released <- !(c.frontier);
        release c (fun (b : Conjunct.answer) -> b.x < c.released)
      end;
      next_canonical c)

let next = function
  | Plain c -> Conjunct.get_next c
  | Levelled lev -> next_levelled lev
  | Canonical c -> next_canonical c

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
  | Canonical c -> Conjunct.stats c.conj

(* An abandoned canonical stream releases the ledger charges of the
   answers it still holds. *)
let close = function
  | Plain _ | Levelled _ -> ()
  | Canonical c ->
    Governor.release_mem c.c_governor (c.held * Mem.answer_entry_bytes);
    c.held <- 0;
    c.staged <- [];
    c.ready <- []

let of_plan ~graph ~ontology ~options ?governor ?metrics (plan : Plan.t) =
  let governor = match governor with Some g -> g | None -> Options.governor options in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  if plan.Plan.canonical then
    let frontier = ref 0 in
    Canonical
      {
        conj =
          Conjunct.open_ ~graph ~ontology ~options ~governor ~metrics
            ~frontier:(fun w -> frontier := w)
            plan (List.hd plan.Plan.parts);
        c_governor = governor;
        frontier;
        released = 0;
        staged = [];
        ready = [];
        held = 0;
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
