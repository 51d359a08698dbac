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
   parallel stream).  Conjuncts the dispatcher cannot shard (constant-
   seeded, non-decomposed) run the literally unchanged sequential path at
   any [domains], so for those the expectation is the sequential stream
   itself, emission order included.

   Coverage: exact / APPROX / RELAX, the distance-aware (levelled, slack
   phi-1) strategy, decomposed alternations (part-sharding instead of
   seed-sharding, with merge-level dedup), case-2 reversal (constant
   object), and witness provenance (per-answer hop costs must sum to the
   distance on every domain count).

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

(* Mirrors [Evaluator.create]'s dispatch: only variable/variable conjuncts
   seed-shard, and only decomposed alternations part-shard — anything else
   runs the literally unchanged sequential path at any [domains], so its
   emission order is the sequential one, not the canonical sort. *)
let parallelisable options (c : Q.conjunct) =
  (match (c.Q.subj, c.Q.obj) with Q.Var _, Q.Var _ -> true | _ -> false)
  || (options.O.decompose && List.length (R.top_level_alternatives c.Q.regex) > 1)

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

(* Decomposed alternations exercise the other partition seam: a
   constant-subject conjunct splits its top-level alternatives across the
   pool, so the merge must also dedup (x, y) pairs across shards. *)
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
    ]
