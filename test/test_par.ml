(* Determinism of parallel evaluation (lib/core/par.ml): on random frozen
   graphs from [Instance_gen], the parallel answer stream must be
   *element-wise identical* at every domain count.

   The contract under test (DESIGN.md §Parallel evaluation): a parallel
   evaluator emits its answers in the canonical order — globally sorted by
   (distance, x, y) — regardless of how many domains raced to produce them,
   because the ranked merge only releases a distance bucket once every live
   shard has moved provably past it, and sealed buckets are sorted by the
   documented tie-break.  A sequential run emits the same multiset but in
   queue-accident order within a distance level, so the comparison is:

       stream(domains = N)  =  sort_{(dist, x, y)} (stream(domains = 1))

   for every N >= 2 — which transitively also proves any two parallel
   counts produce byte-identical streams, and that the parallel emission
   order is already canonical (no post-hoc sorting on the test side of the
   parallel stream).  Conjuncts the plan does not shard (constant-seeded,
   distance-aware or decomposed) run the literally unchanged sequential
   path at any [domains], so for those the expectation is the sequential
   stream itself, emission order included.

   Coverage: exact / APPROX / RELAX, the distance-aware (levelled) and
   decomposed strategies (sequential at any domain count), case-2
   reversal (constant object), and witness provenance (per-answer hop
   costs must sum to the distance on every domain count).

   A final non-property group is the reentrancy regression for the
   per-domain failpoint RNG and the mutex-guarded tracer: two engine runs
   in flight on separate domains in one process must each produce exactly
   the answers and scalar stats of a solo run. *)

module Q = Core.Query
module R = Rpq_regex.Regex
module O = Core.Options
open Instance_gen

(* One drained evaluator run: [(dist, x, y)] in emission order, checking
   each witness sums to its distance when provenance is on. *)
let stream ~domains ~provenance options g k conjunct =
  let options = { options with O.domains; provenance } in
  let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let rec drain acc =
    match Core.Evaluator.next ev with
    | Some (a : Core.Conjunct.answer) ->
      (match a.witness with
      | Some w ->
        if Core.Witness.cost w <> a.dist then
          QCheck2.Test.fail_reportf "witness cost %d <> dist %d at domains=%d"
            (Core.Witness.cost w) a.dist domains
      | None -> if provenance then QCheck2.Test.fail_report "missing witness");
      drain ((a.dist, a.x, a.y) :: acc)
    | None -> List.rev acc
  in
  drain []

(* Mirrors [Plan.build]: only variable/variable conjuncts with the plain
   strategy seed-shard — anything else runs the literally unchanged
   sequential path at any [domains], so its emission order is the
   sequential one, not the canonical sort. *)
let parallelisable options (c : Q.conjunct) =
  (match (c.Q.subj, c.Q.obj) with Q.Var _, Q.Var _ -> true | _ -> false)
  && (not options.O.distance_aware)
  && not (options.O.decompose && List.length (R.top_level_alternatives c.Q.regex) > 1)

let deterministic ?(provenance = false) ?(par_counts = [ 2; 4 ]) options inst =
  let g, k = build inst in
  let conjunct = conjunct_of inst in
  let seq = stream ~domains:1 ~provenance options g k conjunct in
  let expected = if parallelisable options conjunct then List.sort compare seq else seq in
  List.for_all
    (fun n ->
      let par = stream ~domains:n ~provenance options g k conjunct in
      if par <> expected then
        let show l =
          String.concat "; " (List.map (fun (d, x, y) -> Printf.sprintf "(%d,%d,%d)" d x y) l)
        in
        QCheck2.Test.fail_reportf "domains=%d:\n  par: [%s]\n  seq: [%s]" n (show par)
          (show expected)
      else true)
    par_counts

let det_prop ?provenance ?par_counts name ~count ~mode options =
  QCheck2.Test.make ~name ~count (gen_instance ~mode)
    (deterministic ?provenance ?par_counts options)

let exact_prop =
  det_prop "parallel = sequential (exact, domains 2/4/8)" ~count:50 ~mode:Q.Exact
    ~par_counts:[ 2; 4; 8 ] O.default

let approx_prop = det_prop "parallel = sequential (APPROX)" ~count:50 ~mode:Q.Approx O.default
let relax_prop = det_prop "parallel = sequential (RELAX)" ~count:40 ~mode:Q.Relax O.default

let hetero_costs = { O.ins = 2; del = 2; sub = 4; beta = 2; gamma = 3 }

let approx_da_prop =
  det_prop "parallel = sequential (distance-aware APPROX, hetero costs)" ~count:35 ~mode:Q.Approx
    { O.default with O.distance_aware = true; costs = hetero_costs }

let relax_da_prop =
  det_prop "parallel = sequential (distance-aware RELAX, hetero costs)" ~count:25 ~mode:Q.Relax
    { O.default with O.distance_aware = true; costs = hetero_costs }

(* A decomposed alternation runs its parts level by level on one domain,
   whatever the subject: at every domain count the stream is the
   sequential one, emission order included. *)
let decomposed_prop =
  QCheck2.Test.make ~name:"parallel = sequential (decomposed APPROX alternation)" ~count:40
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) gen_regex)
    (fun (inst, extra) ->
      let inst = { inst with regex = R.Alt (inst.regex, extra) } in
      deterministic { O.default with O.decompose = true; costs = hetero_costs } inst)

(* Case-2 reversal: a constant object flips the conjunct to const-seeded
   traversal over the reversed regex; the parallel path must shard the
   reversed exploration, not the written one. *)
let case2_prop =
  QCheck2.Test.make ~name:"parallel = sequential (case-2 reversal: constant object)" ~count:30
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) QCheck2.Gen.(int_bound 1000))
    (fun (inst, i) ->
      let inst = { inst with subj = `Var; obj = `Node (i mod (inst.n_base + n_classes)) } in
      deterministic O.default inst)

let provenance_prop =
  det_prop "parallel witnesses: hop costs sum to distance" ~provenance:true ~count:30
    ~mode:Q.Approx O.default

(* --- reentrancy regression --------------------------------------------- *)

(* Two engine runs in flight at once — one on the initial domain, one on a
   spawned domain, one of them itself parallel — with failpoints armed
   (probability 0: the armed path and its domain-local PRNG cells are
   exercised without perturbing results) and the tracer enabled.  Each run
   must produce exactly the answers and scalar counters of its solo run:
   before the per-domain failpoint state and the mutex-guarded trace ring,
   concurrent runs corrupted each other through the shared RNG closure and
   the unguarded ring buffer. *)
let solo options g k conjunct =
  let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let rec drain acc =
    match Core.Evaluator.next ev with
    | Some (a : Core.Conjunct.answer) -> drain ((a.dist, a.x, a.y) :: acc)
    | None -> List.rev acc
  in
  let answers = drain [] in
  let st = Core.Exec_stats.copy (Core.Evaluator.stats ev) in
  (List.sort compare answers, st.pushes, st.pops, st.edges_scanned, st.answers)

let concurrent_runs () =
  let rand = Random.State.make [| 0x5eed |] in
  let inst_a = QCheck2.Gen.generate1 ~rand (gen_instance ~mode:Q.Approx) in
  let inst_b = QCheck2.Gen.generate1 ~rand (gen_instance ~mode:Q.Relax) in
  let inst_a = { inst_a with subj = `Var; obj = `Fresh } in
  let ga, ka = build inst_a and gb, kb = build inst_b in
  let ca = conjunct_of inst_a and cb = conjunct_of inst_b in
  let opts_a = { O.default with O.domains = 2 } and opts_b = O.default in
  let expect_a = solo opts_a ga ka ca and expect_b = solo opts_b gb kb cb in
  Core.Failpoints.arm ~seed:7 (List.map (fun p -> (p, 0.)) Core.Failpoints.all_points);
  Obs.Flight.enable ~capacity:4096 ();
  Fun.protect
    ~finally:(fun () ->
      Core.Failpoints.disarm ();
      Obs.Flight.disable ();
      Obs.Flight.clear ())
    (fun () ->
      for _round = 1 to 5 do
        let worker = Domain.spawn (fun () -> solo opts_b gb kb cb) in
        let got_a = solo opts_a ga ka ca in
        let got_b = Domain.join worker in
        Alcotest.(check bool) "run A unperturbed by concurrent run B" true (got_a = expect_a);
        Alcotest.(check bool) "run B unperturbed by concurrent run A" true (got_b = expect_b)
      done;
      (* the recorder survived concurrent emission: every ring is coherent,
         and the timeline exports *)
      let seqs = List.map (fun (e : Obs.Flight.event) -> e.Obs.Flight.seq) (Obs.Flight.events ()) in
      Alcotest.(check bool) "merged rings: unique, ordered sequence numbers" true
        (List.sort_uniq compare seqs = seqs);
      ignore (Obs.Trace.to_json ()))

(* --- compile once, on the opening domain ------------------------------ *)

(* Every automaton a query evaluates is compiled once, by the plan
   [Engine.open_query] builds on the calling domain: shards and psi
   restarts reuse it.  With the recorder on, each compile leaves one
   [build.thompson] span.  None of these queries decomposes, so each plan
   holds exactly one automaton. *)
let l4_graph, l4_ontology = Datagen.L4all.generate ~timelines:21 ()

let compiles_once ~options ?limit text () =
  let q = Core.Query_parser.parse text in
  Obs.Flight.enable ~capacity:65536 ();
  let outcome, events =
    Fun.protect
      ~finally:(fun () ->
        Obs.Flight.disable ();
        Obs.Flight.clear ())
      (fun () ->
        let st = Core.Engine.open_query ~graph:l4_graph ~ontology:l4_ontology ~options q in
        let outcome = Core.Engine.drain ?limit st in
        (outcome, Obs.Flight.events ()))
  in
  Alcotest.(check bool) "answers" true (outcome.Core.Engine.answers <> []);
  let compiles =
    List.filter_map
      (fun (e : Obs.Flight.event) ->
        match e.Obs.Flight.kind with
        | Obs.Flight.Span { ph = Obs.Flight.Begin; name = "build.thompson"; _ } ->
          Some e.Obs.Flight.domain
        | _ -> None)
      events
  in
  Alcotest.(check int) "one compile per automaton" (List.length q.Q.conjuncts) (List.length compiles);
  let self = (Domain.self () :> int) in
  Alcotest.(check (list int)) "all on the opening domain" (List.map (fun _ -> self) compiles) compiles;
  events

let compile_once_sharded () =
  ignore
    (compiles_once ~options:{ O.default with O.domains = 2 } ~limit:200
       "(?X, ?Y) <- (?X, job.type, ?Y)" ())

let compile_once_restarts () =
  let events =
    compiles_once ~options:{ O.default with O.distance_aware = true } ~limit:50
      "(?X) <- APPROX (Librarians, type-, ?X)" ()
  in
  let levels =
    List.length
      (List.filter
         (fun (e : Obs.Flight.event) ->
           match e.Obs.Flight.kind with
           | Obs.Flight.Span { name = "psi.level"; _ } -> true
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "at least two psi levels ran" true (levels >= 1)

let compile_once_admission () =
  ignore
    (compiles_once
       ~options:{ O.default with O.max_states = Some 1_000_000 }
       ~limit:20 "(?X) <- APPROX (Librarians, type-.job-, ?X)" ())

(* The graph's interner has no lock, so only the opening domain may grow
   it: a label the graph lacks is interned exactly once per query, however
   many shards evaluate the conjunct. *)
let fresh_labels_intern_once () =
  let interner = Graphstore.Graph.interner l4_graph in
  let options = { O.default with O.domains = 4 } in
  for i = 1 to 500 do
    let before = Graphstore.Interner.cardinal interner in
    let q = Core.Query_parser.parse (Printf.sprintf "(?X, ?Y) <- (?X, fresh_label_%d, ?Y)" i) in
    let outcome = Core.Engine.run ~graph:l4_graph ~ontology:l4_ontology ~options q in
    Alcotest.(check int) "no answers" 0 (List.length outcome.Core.Engine.answers);
    Alcotest.(check int)
      (Printf.sprintf "query %d interns its label once" i)
      (before + 1) (Graphstore.Interner.cardinal interner)
  done

(* --- the query's domain budget ------------------------------------------ *)

(* A query opens every conjunct's evaluator at once, and a parallel plan
   spawns its domains then: [Plan.of_query] hands [Options.max_domains]
   out in body order, and a conjunct left fewer than 2 runs sequentially.
   Only plans are built here — no domain is spawned. *)
let domain_budget ~domains ~sharded () =
  let n = 40 in
  let body = List.init n (fun i -> Printf.sprintf "(?X%d, type-, ?Y%d)" i i) in
  let q = Core.Query_parser.parse ("(?X0) <- " ^ String.concat ", " body) in
  let options = { O.default with O.domains } in
  let got =
    List.map
      (fun (p : Core.Plan.t) -> p.domains)
      (Core.Plan.of_query ~graph:l4_graph ~ontology:l4_ontology ~options q)
  in
  let expected = List.init n (fun i -> if i < List.length sharded then List.nth sharded i else 1) in
  Alcotest.(check (list int)) "domains per conjunct, in body order" expected got;
  let spawned = List.fold_left (fun acc d -> if d > 1 then acc + d else acc) 0 got in
  Alcotest.(check bool) "within the bound" true (spawned <= O.max_domains)

(* Only a plain (?X, R, ?Y) conjunct shards: at 4 domains every
   distance-aware or decomposed shape, and every constant-seeded one,
   plans 1 domain.  [--decompose] without a top-level alternation falls
   back to the plain strategy, so it shards. *)
let seam_table () =
  let da = { O.default with O.domains = 4; distance_aware = true }
  and dec = { O.default with O.domains = 4; decompose = true } in
  let plain = { O.default with O.domains = 4 } in
  List.iter
    (fun (options, text, expected) ->
      let c = List.hd (Core.Query_parser.parse text).Q.conjuncts in
      let p = Core.Plan.make ~graph:l4_graph ~ontology:l4_ontology ~options c in
      Alcotest.(check int) text expected p.Core.Plan.domains)
    [
      (plain, "(?X, ?Y) <- (?X, next+, ?Y)", 4);
      (plain, "(?X, ?Y) <- APPROX (?X, next+|(prereq+.next), ?Y)", 4);
      (plain, "(?X) <- APPROX (Librarians, type-.job-|next, ?X)", 1);
      (plain, "(?X) <- (?X, type, Librarians)", 1);
      (da, "(?X, ?Y) <- (?X, job.type, ?Y)", 1);
      (da, "(?X, ?Y) <- APPROX (?X, prereq+, ?Y)", 1);
      (da, "(?X) <- RELAX (Librarians, type-, ?X)", 1);
      (dec, "(?X, ?Y) <- APPROX (?X, next+|(prereq+.next), ?Y)", 1);
      (dec, "(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)", 1);
      (dec, "(?X) <- APPROX (Librarians, type-.job-|next, ?X)", 1);
      (dec, "(?X) <- APPROX (Librarians, type-.job-.next|next, ?X)", 1);
      (dec, "(?X, ?Y) <- (?X, next+, ?Y)", 4);
      ({ dec with O.distance_aware = true }, "(?X, ?Y) <- (?X, next+, ?Y)", 1);
    ]

(* --- the merge's park/unpark path -------------------------------------- *)

(* With a pending-list cap of 1, a worker parks after every undrained
   answer and the consumer's drain unparks it; the merged stream must be
   the one the default cap produces. *)
let park_unpark () =
  let per_shard = 200 in
  let merged ?queue_cap () =
    let produced = Array.init 2 (fun _ -> Atomic.make 0) in
    let build ~shard ~governor:_ ~metrics:_ ~mark:_ =
      let k = ref 0 in
      let pull () =
        if !k >= per_shard then None
        else begin
          let a = { Core.Conjunct.x = (2 * !k) + shard; y = !k mod 7; dist = !k / 10; witness = None } in
          incr k;
          Atomic.set produced.(shard) !k;
          Some a
        end
      in
      (pull, Core.Exec_stats.create)
    in
    let par =
      Core.Par.create ~domains:2 ~governor:(Core.Governor.unlimited ())
        ~metrics:(Obs.Metrics.create ()) ?queue_cap ~build ()
    in
    (* let both workers reach their second answer before the first drain *)
    while Array.exists (fun c -> Atomic.get c < 2) produced do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.01;
    let rec drain acc =
      match Core.Par.next par with
      | Some (a : Core.Conjunct.answer) -> drain ((a.dist, a.x, a.y) :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  let default = merged () in
  Alcotest.(check int) "every answer merged" (2 * per_shard) (List.length default);
  Obs.Flight.enable ~capacity:65536 ();
  let capped, parks =
    Fun.protect
      ~finally:(fun () ->
        Obs.Flight.disable ();
        Obs.Flight.clear ())
      (fun () ->
        let capped = merged ~queue_cap:1 () in
        let parks =
          List.length
            (List.filter
               (fun (e : Obs.Flight.event) ->
                 match e.Obs.Flight.kind with Obs.Flight.Park _ -> true | _ -> false)
               (Obs.Flight.events ()))
        in
        (capped, parks))
  in
  Alcotest.(check bool) "workers parked" true (parks > 0);
  Alcotest.(check bool) "same merged stream as the default cap" true (capped = default)

(* --- the distance-0 watermark -------------------------------------------- *)

let events_of_kind pred =
  List.filter (fun (e : Obs.Flight.event) -> pred e.Obs.Flight.kind) (Obs.Flight.events ())

(* Run [f] with the recorder at the detail level and the online monitor
   on (every mark, seal and emit is checked as it is recorded). *)
let monitored f =
  Obs.Flight.enable ~capacity:65536 ~detail:true ();
  Obs.Flight.Monitor.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.Monitor.disable ();
      Obs.Flight.disable ();
      Obs.Flight.clear ())
    (fun () ->
      let r = f () in
      Obs.Flight.Monitor.assert_ok ();
      r)

let drain_par par =
  let rec go acc =
    match Core.Par.next par with
    | Some (a : Core.Conjunct.answer) -> go ((a.dist, a.x, a.y) :: acc)
    | None -> List.rev acc
  in
  go []

(* A ring n0 -p-> n1 -p-> ... -> n0: every node is a seed with one exact
   answer and one more per extra hop of [p+]. *)
let ring n =
  let g = Graphstore.Graph.create () in
  for i = 0 to n - 1 do
    ignore (Graphstore.Graph.add_node g (Printf.sprintf "n%d" i))
  done;
  for i = 0 to n - 1 do
    Graphstore.Graph.add_edge_s g i "p" ((i + 1) mod n)
  done;
  Graphstore.Graph.freeze g;
  (g, Ontology.create (Graphstore.Graph.interner g))

(* Exact [(?X, p.p, ?Y)] over the ring, seed-sharded by hand so that the
   pending lists can be capped at 1: the shards park after every answer,
   so none can finish before the consumer has drained nearly all of its
   answers — and the merge must not wait for a shard to finish before it
   emits an exact answer.  The shards also pull in step (neither runs more
   than 4 answers ahead of the other, for at most 5 s), so that a shard
   whose domain starts late cannot let the other finish first. *)
let first_emit_before_done () =
  let g, k = ring 200 in
  let options = { O.default with O.batch_size = 4 } in
  let conjunct = List.hd (Core.Query_parser.parse "(?X, ?Y) <- (?X, p.p, ?Y)").Q.conjuncts in
  let plan = Core.Plan.make ~graph:g ~ontology:k ~options conjunct in
  let pulled = Array.init 2 (fun _ -> Atomic.make 0) in
  let build ~shard ~governor ~metrics ~mark =
    let c =
      Core.Conjunct.open_ ~graph:g ~ontology:k ~options ~governor ~metrics
        ~seed_filter:(fun oid -> oid mod 2 = shard)
        ~frontier:mark plan (List.hd plan.Core.Plan.parts)
    in
    let pull () =
      let mine = Atomic.fetch_and_add pulled.(shard) 1 and t0 = Unix.gettimeofday () in
      while Atomic.get pulled.(1 - shard) < mine - 4 && Unix.gettimeofday () -. t0 < 5. do
        Domain.cpu_relax ()
      done;
      Core.Conjunct.get_next c
    in
    (pull, fun () -> Core.Conjunct.stats c)
  in
  let got, first_emit, first_done =
    monitored (fun () ->
        let par =
          Core.Par.create ~domains:2 ~governor:(Core.Governor.unlimited ())
            ~metrics:(Obs.Metrics.create ()) ~queue_cap:1 ~build ()
        in
        let got = drain_par par in
        let seq_of pred =
          List.fold_left
            (fun m (e : Obs.Flight.event) -> min m e.Obs.Flight.seq)
            max_int (events_of_kind pred)
        in
        ( got,
          seq_of (function Obs.Flight.Emit _ -> true | _ -> false),
          seq_of (function Obs.Flight.Shard_done _ -> true | _ -> false) ))
  in
  Alcotest.(check (list (triple int int int))) "the canonical stream"
    (List.init 200 (fun i -> (0, i, (i + 2) mod 200)))
    got;
  Alcotest.(check bool) "first emit before any shard is done" true (first_emit < first_done)

(* A shard that publishes a mark but no answers below it must not hold the
   other shard's answers below that mark back: shard 0 marks 50 and then
   waits (for at most 5 s) until the consumer has emitted every answer of
   shard 1 below 50; only then does it deliver its own.  Without the
   watermark the merge would wait for shard 0's first delivery, and
   nothing would come out before shard 0 gave up waiting. *)
let quiet_shard_does_not_block () =
  let released = Atomic.make false and proceeded = Atomic.make false in
  let build ~shard ~governor:_ ~metrics:_ ~mark =
    let pull =
      if shard = 0 then begin
        let k = ref 50 in
        fun () ->
          if !k = 50 then begin
            mark 50;
            let t0 = Unix.gettimeofday () in
            while (not (Atomic.get released)) && Unix.gettimeofday () -. t0 < 5. do
              Unix.sleepf 0.001
            done;
            Atomic.set proceeded true
          end;
          if !k >= 100 then (mark max_int; None)
          else begin
            mark !k;
            let a = { Core.Conjunct.x = !k; y = 0; dist = 0; witness = None } in
            k := !k + 2;
            Some a
          end
      end
      else begin
        let k = ref 1 in
        fun () ->
          if !k >= 100 then (mark max_int; None)
          else begin
            mark !k;
            let a = { Core.Conjunct.x = !k; y = 0; dist = 0; witness = None } in
            k := !k + 2;
            Some a
          end
      end
    in
    (pull, Core.Exec_stats.create)
  in
  let early = ref [] in
  let got =
    monitored (fun () ->
        let par =
          Core.Par.create ~domains:2 ~governor:(Core.Governor.unlimited ())
            ~metrics:(Obs.Metrics.create ()) ~build ()
        in
        let rec go acc =
          match Core.Par.next par with
          | Some (a : Core.Conjunct.answer) ->
            if not (Atomic.get proceeded) then early := a.x :: !early;
            if a.x = 49 then Atomic.set released true;
            go ((a.dist, a.x, a.y) :: acc)
          | None -> List.rev acc
        in
        go [])
  in
  Alcotest.(check (list (triple int int int))) "the canonical stream"
    (List.sort compare
       (List.init 50 (fun i -> (0, (2 * i) + 1, 0)) @ List.init 25 (fun i -> (0, 50 + (2 * i), 0))))
    got;
  Alcotest.(check (list int)) "shard 1's answers below the quiet shard's mark came first"
    (List.init 25 (fun i -> (2 * i) + 1))
    (List.rev !early)

(* A shard that trips freezes its mark: shard 0 marks 20, delivers its
   answers below it and trips with more owed; shard 1 runs to the end.
   The merge may release the distance-0 answers below 20, which are
   exact, and nothing at or above it.  The monitor's mark-overrun rule
   checks every watermark against the frozen mark; the race it guards is
   timing-dependent, so the run repeats. *)
let tripped_mark_frozen_once () =
  let governor = O.governor O.default in
  let build ~shard ~governor ~metrics:_ ~mark =
    let k = ref shard in
    let pull () =
      if shard = 0 && !k >= 20 then begin
        Core.Governor.fault governor "tripped-mark";
        None
      end
      else if !k >= 100 then (mark max_int; None)
      else begin
        mark !k;
        let a = { Core.Conjunct.x = !k; y = 0; dist = 0; witness = None } in
        k := !k + 2;
        Some a
      end
    in
    (pull, Core.Exec_stats.create)
  in
  let got, marks =
    monitored (fun () ->
        let par =
          Core.Par.create ~domains:2 ~governor ~metrics:(Obs.Metrics.create ()) ~build ()
        in
        let got = Fun.protect ~finally:(fun () -> Core.Par.close par) (fun () -> drain_par par) in
        ( got,
          List.filter_map
            (fun (e : Obs.Flight.event) ->
              match e.Obs.Flight.kind with
              | Obs.Flight.Mark { mark } when e.Obs.Flight.shard = 0 -> Some mark
              | _ -> None)
            (Obs.Flight.events ()) ))
  in
  Alcotest.(check bool) "shard 0's mark froze below 20" true (List.for_all (fun m -> m < 20) marks);
  let full = List.init 100 (fun x -> (0, x, 0)) in
  Alcotest.(check bool) "the emitted prefix is exact" true
    (got = List.filteri (fun i _ -> i < List.length got) full);
  Alcotest.(check bool) "nothing at or above the frozen mark" true
    (List.for_all (fun (_, x, _) -> x < 20) got)

let tripped_mark_frozen () =
  for _ = 1 to 30 do
    tripped_mark_frozen_once ()
  done

(* Top-k through the watermark: a [limit k] stream is the first [k]
   answers of the drained 2-domain stream, at 2, 3 and 4 domains. *)
let limit_prefix_prop =
  QCheck2.Test.make ~name:"limit k = prefix of the drained stream" ~count:40
    QCheck2.Gen.(pair (gen_instance ~mode:Q.Exact) (int_range 1 30))
    (fun (inst, k) ->
      let inst = { inst with subj = `Var; obj = `Fresh } in
      let g, onto = build inst in
      let conjunct = conjunct_of inst in
      let drained = stream ~domains:2 ~provenance:false O.default g onto conjunct in
      let expected = List.filteri (fun i _ -> i < k) drained in
      List.for_all
        (fun domains ->
          let ev =
            Core.Evaluator.create ~graph:g ~ontology:onto ~options:{ O.default with O.domains } conjunct
          in
          let rec take n acc =
            if n = 0 then List.rev acc
            else
              match Core.Evaluator.next ev with
              | Some (a : Core.Conjunct.answer) -> take (n - 1) ((a.dist, a.x, a.y) :: acc)
              | None -> List.rev acc
          in
          let got = take k [] in
          Core.Evaluator.close ev;
          if got <> expected then
            QCheck2.Test.fail_reportf "domains=%d limit=%d: %d answers differ from the drained prefix"
              domains k (List.length got)
          else true)
        [ 2; 3; 4 ])

let () =
  Alcotest.run "par"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest exact_prop;
          QCheck_alcotest.to_alcotest approx_prop;
          QCheck_alcotest.to_alcotest relax_prop;
          QCheck_alcotest.to_alcotest approx_da_prop;
          QCheck_alcotest.to_alcotest relax_da_prop;
          QCheck_alcotest.to_alcotest decomposed_prop;
          QCheck_alcotest.to_alcotest case2_prop;
          QCheck_alcotest.to_alcotest provenance_prop;
        ] );
      ("reentrancy", [ Alcotest.test_case "two concurrent engine runs" `Quick concurrent_runs ]);
      ( "compile",
        [
          Alcotest.test_case "seed-sharded: compiled once, on the opening domain" `Quick
            compile_once_sharded;
          Alcotest.test_case "psi restarts reuse the automaton" `Quick compile_once_restarts;
          Alcotest.test_case "admission reads the plan" `Quick compile_once_admission;
          Alcotest.test_case "fresh labels intern once at 4 domains" `Quick
            fresh_labels_intern_once;
        ] );
      ("merge", [ Alcotest.test_case "queue cap 1: park/unpark, same stream" `Quick park_unpark ]);
      ( "watermark",
        [
          Alcotest.test_case "exact top answer before any shard is done" `Quick first_emit_before_done;
          Alcotest.test_case "a quiet shard's mark releases the other's" `Quick
            quiet_shard_does_not_block;
          Alcotest.test_case "a tripped shard's mark stays frozen" `Quick tripped_mark_frozen;
          QCheck_alcotest.to_alcotest limit_prefix_prop;
        ] );
      ( "domains",
        [
          Alcotest.test_case "40 conjuncts at 2: 32 sharded" `Quick
            (domain_budget ~domains:2 ~sharded:(List.init 32 (fun _ -> 2)));
          Alcotest.test_case "40 conjuncts at 1000: one gets 64" `Quick
            (domain_budget ~domains:1000 ~sharded:[ 64 ]);
          Alcotest.test_case "at 4: only plain (?X, R, ?Y) shards" `Quick seam_table;
        ] );
    ]
