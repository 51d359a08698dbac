(* The canonical order of [Options.domains >= 2] (lib/core/evaluator.ml):
   on random frozen graphs from [Instance_gen], the answer stream must be
   *element-wise identical* at every domain count >= 2.

   The contract under test (DESIGN.md "The canonical order"): a plain
   (?X, R, ?Y) conjunct at [domains >= 2] emits its answers globally sorted
   by (distance, x, y), because the evaluator releases a distance bucket
   only once the conjunct has moved past it, sorted by the documented
   tie-break.  The sequential path (domains 1) emits the same multiset but
   in queue order within a distance level, and it is the reference:

       stream(domains = N)  =  sort_{(dist, x, y)} (stream(domains = 1))

   for every N >= 2 — which transitively also proves any two counts >= 2
   produce byte-identical streams, and that the emission order is already
   canonical (no post-hoc sorting on the test side of that stream).
   Conjuncts the plan leaves in sequential order (constant-seeded,
   distance-aware or decomposed) run the literally unchanged sequential
   path at any [domains], so for those the expectation is the sequential
   stream itself, emission order included.

   Coverage: exact / APPROX / RELAX, the distance-aware (levelled) and
   decomposed strategies, case-2 reversal (constant object), witness
   provenance (per-answer hop costs must sum to the distance on every
   domain count) and top-k prefixes.

   A non-property group is the reentrancy regression for the per-domain
   failpoint RNG and the mutex-guarded tracer: two engine runs in flight
   on separate domains in one process must each produce exactly the
   answers and scalar stats of a solo run. *)

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

(* Mirrors [Plan.make]: only variable/variable conjuncts with the plain
   strategy take the canonical order — anything else runs the literally
   unchanged sequential path at any [domains], so its emission order is the
   sequential one, not the canonical sort. *)
let canonical options (c : Q.conjunct) =
  (match (c.Q.subj, c.Q.obj) with Q.Var _, Q.Var _ -> true | _ -> false)
  && (not options.O.distance_aware)
  && not (options.O.decompose && List.length (R.top_level_alternatives c.Q.regex) > 1)

let deterministic ?(provenance = false) ?(par_counts = [ 2; 4 ]) options inst =
  let g, k = build inst in
  let conjunct = conjunct_of inst in
  let seq = stream ~domains:1 ~provenance options g k conjunct in
  let expected = if canonical options conjunct then List.sort compare seq else seq in
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
   traversal over the reversed regex, which keeps the sequential order. *)
let case2_prop =
  QCheck2.Test.make ~name:"parallel = sequential (case-2 reversal: constant object)" ~count:30
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) QCheck2.Gen.(int_bound 1000))
    (fun (inst, i) ->
      let inst = { inst with subj = `Var; obj = `Node (i mod (inst.n_base + n_classes)) } in
      deterministic O.default inst)

let provenance_prop =
  det_prop "parallel witnesses: hop costs sum to distance" ~provenance:true ~count:30
    ~mode:Q.Approx O.default

(* The sequential path is the reference for top-k too.  At domains 2 and 4
   the first [k] answers of a plain (?X, R, ?Y) conjunct are the first [k]
   of the drained domains-1 stream stably sorted by (dist, x, y); pulled on
   to the end of the last distance they reach, they are every answer of
   the sorted stream up to that distance. *)
let limit_reference_prop =
  QCheck2.Test.make ~name:"canonical top-k = sorted sequential" ~count:60
    QCheck2.Gen.(
      let* mode = oneofl [ Q.Exact; Q.Approx; Q.Relax ] in
      pair (gen_instance ~mode) (int_range 1 40))
    (fun (inst, k) ->
      let inst = { inst with subj = `Var; obj = `Fresh } in
      let g, onto = build inst in
      let conjunct = conjunct_of inst in
      let sorted =
        List.stable_sort compare (stream ~domains:1 ~provenance:false O.default g onto conjunct)
      in
      List.for_all
        (fun domains ->
          let options = { O.default with O.domains } in
          let ev = Core.Evaluator.create ~graph:g ~ontology:onto ~options conjunct in
          let pull () =
            Option.map
              (fun (a : Core.Conjunct.answer) -> (a.dist, a.x, a.y))
              (Core.Evaluator.next ev)
          in
          let rec take n acc =
            if n = 0 then List.rev acc
            else match pull () with Some a -> take (n - 1) (a :: acc) | None -> List.rev acc
          in
          let top = take k [] in
          let last = match List.rev top with (d, _, _) :: _ -> d | [] -> -1 in
          let rec extend acc =
            match pull () with
            | Some ((d, _, _) as a) when d <= last -> extend (a :: acc)
            | _ -> List.rev acc
          in
          let upto = top @ extend [] in
          Core.Evaluator.close ev;
          if top <> List.filteri (fun i _ -> i < k) sorted then
            QCheck2.Test.fail_reportf "domains=%d k=%d: the top-k is not the sorted prefix" domains
              k
          else if upto <> List.filter (fun (d, _, _) -> d <= last) sorted then
            QCheck2.Test.fail_reportf "domains=%d k=%d: distance %d is not whole" domains k last
          else true)
        [ 2; 4 ])

(* --- reentrancy regression --------------------------------------------- *)

(* Two engine runs in flight at once — one on the initial domain, one on a
   spawned domain, one of them in the canonical order — with failpoints armed
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
   [Engine.open_query] builds on the calling domain: psi restarts reuse
   it.  With the recorder on, each compile leaves one
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

let compile_once_canonical () =
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

(* Only a plain (?X, R, ?Y) conjunct takes the canonical order: at 4
   domains every distance-aware or decomposed shape, and every
   constant-seeded one, keeps the sequential order.  [--decompose] without
   a top-level alternation falls back to the plain strategy, so it is
   canonical. *)
let seam_table () =
  let da = { O.default with O.domains = 4; distance_aware = true }
  and dec = { O.default with O.domains = 4; decompose = true } in
  let plain = { O.default with O.domains = 4 } in
  List.iter
    (fun (options, text, expected) ->
      let c = List.hd (Core.Query_parser.parse text).Q.conjuncts in
      let p = Core.Plan.make ~graph:l4_graph ~ontology:l4_ontology ~options c in
      Alcotest.(check bool) text expected p.Core.Plan.canonical)
    [
      (plain, "(?X, ?Y) <- (?X, next+, ?Y)", true);
      (plain, "(?X, ?Y) <- APPROX (?X, next+|(prereq+.next), ?Y)", true);
      (plain, "(?X) <- APPROX (Librarians, type-.job-|next, ?X)", false);
      (plain, "(?X) <- (?X, type, Librarians)", false);
      (da, "(?X, ?Y) <- (?X, job.type, ?Y)", false);
      (da, "(?X, ?Y) <- APPROX (?X, prereq+, ?Y)", false);
      (da, "(?X) <- RELAX (Librarians, type-, ?X)", false);
      (dec, "(?X, ?Y) <- APPROX (?X, next+|(prereq+.next), ?Y)", false);
      (dec, "(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)", false);
      (dec, "(?X) <- APPROX (Librarians, type-.job-|next, ?X)", false);
      (dec, "(?X) <- APPROX (Librarians, type-.job-.next|next, ?X)", false);
      (dec, "(?X, ?Y) <- (?X, next+, ?Y)", true);
      ({ dec with O.distance_aware = true }, "(?X, ?Y) <- (?X, next+, ?Y)", false);
    ]

(* --- the distance-0 watermark -------------------------------------------- *)

let drain ev =
  let rec go acc =
    match Core.Evaluator.next ev with
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

let ring_conjunct text = List.hd (Core.Query_parser.parse text).Q.conjuncts

(* Exact [(?X, p.p, ?Y)] over the ring at domains 2, seeds drawn 4 at a
   time: the evaluator must not wait for the seeder to be exhausted before
   it emits an exact answer.  The first comes out once the frontier has
   passed the first batch. *)
let first_emit_before_exhausted () =
  let g, k = ring 200 in
  let options = { O.default with O.batch_size = 4; domains = 2 } in
  let conjunct = ring_conjunct "(?X, ?Y) <- (?X, p.p, ?Y)" in
  let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let first = Core.Evaluator.next ev in
  let seeds = (Core.Evaluator.stats ev).Core.Exec_stats.seeds in
  Alcotest.(check bool)
    (Printf.sprintf "first answer after %d of 200 seeds" seeds)
    true (seeds < 200);
  let got =
    match first with Some (a : Core.Conjunct.answer) -> (a.dist, a.x, a.y) :: drain ev | None -> []
  in
  Alcotest.(check (list (triple int int int))) "the canonical stream"
    (List.init 200 (fun i -> (0, i, (i + 2) mod 200)))
    got

(* APPROX [(?X, p.p, ?Y)] over the ring: exact answers at distance 0, more
   at distances 1 and 2.  Under every tuple budget the emitted answers are
   a prefix of the drained canonical stream in which every distance above
   0 is whole: a trip never releases the open bucket.  The budgets sweep
   the run's tuple count in 120 steps; some of them trip after the
   conjunct has yielded distance-1 answers, and then exactly the exact
   answers are out. *)
let budget_trip_in_bucket () =
  let g, k = ring 30 in
  let options = { O.default with O.domains = 2 } in
  let conjunct = ring_conjunct "(?X, ?Y) <- APPROX (?X, p.p, ?Y)" in
  let run governor =
    let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options ~governor conjunct in
    let got = drain ev in
    (got, (Core.Evaluator.stats ev).Core.Exec_stats.answers)
  in
  let unlimited = Core.Governor.unlimited () in
  let full, _ = run unlimited in
  let count d l = List.length (List.filter (fun (d', _, _) -> d' = d) l) in
  let exact = count 0 full in
  Alcotest.(check bool) "answers beyond distance 0" true (List.length full > exact);
  let total = Core.Governor.tuples unlimited in
  let in_bucket = ref 0 in
  for i = 1 to 120 do
    let b = i * total / 120 in
    let governor = Core.Governor.create ~max_tuples:b () in
    let got, yielded = run governor in
    if got <> List.filteri (fun i _ -> i < List.length got) full then
      Alcotest.failf "budget %d: not a prefix of the canonical stream" b;
    List.iter
      (fun (d, _, _) ->
        if d > 0 && count d got <> count d full then
          Alcotest.failf "budget %d: distance %d emitted in part" b d)
      got;
    if
      Core.Governor.tripped governor = Some Core.Governor.Tuple_budget
      && yielded > exact
      && List.length got = exact
      && count 0 got = exact
    then incr in_bucket
  done;
  Alcotest.(check bool) "some budget trips inside distance 1" true (!in_bucket > 0)

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
          QCheck_alcotest.to_alcotest limit_reference_prop;
        ] );
      ("reentrancy", [ Alcotest.test_case "two concurrent engine runs" `Quick concurrent_runs ]);
      ( "compile",
        [
          Alcotest.test_case "canonical order: compiled once" `Quick
            compile_once_canonical;
          Alcotest.test_case "psi restarts reuse the automaton" `Quick compile_once_restarts;
          Alcotest.test_case "admission reads the plan" `Quick compile_once_admission;
        ] );
      ( "watermark",
        [
          Alcotest.test_case "first answer before the seeds run out" `Quick
            first_emit_before_exhausted;
          Alcotest.test_case "budget trip in a bucket: exact prefix" `Quick
            budget_trip_in_bucket;
          QCheck_alcotest.to_alcotest limit_prefix_prop;
        ] );
      ( "domains",
        [ Alcotest.test_case "only plain (?X, R, ?Y) is canonical" `Quick seam_table ] );
    ]
