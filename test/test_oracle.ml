(* Differential tests: the engine (on the CSR-indexed graph) against
   the brute-force product-Dijkstra oracle of [Oracle], on random ~30-node
   graphs with a small class/property hierarchy.  The instances cover every
   conjunct shape the engine distinguishes — variable and constant subjects
   and objects (including unknown constants and repeated variables), exact /
   APPROX / RELAX modes, and the distance-aware / decomposed / unbatched
   evaluation strategies.

   A second group checks the emission-order contract of [Evaluator.next]:
   no (x, y) pair is ever emitted twice, and distances never decrease by
   more than the level slack — 0 for plain evaluation, phi - 1 across the
   level restarts of the distance-aware and decomposed strategies (answers
   within one level can interleave across parts when operation costs are
   heterogeneous). *)

module Q = Core.Query
module R = Rpq_regex.Regex
open Instance_gen

(* --- engine = oracle --------------------------------------------------- *)

(* Every property re-runs at each domain count of
   [Instance_gen.domains_under_test]: the parallel evaluator must agree
   with the oracle on exactly the instances the sequential one does (the
   oracle is computed once per instance; only the engine side re-runs). *)
let agree ?(options = Core.Options.default) inst =
  let g, k = build inst in
  let conjunct = conjunct_of inst in
  let expected = Oracle.answers g k options conjunct in
  List.for_all
    (fun domains ->
      let actual = Oracle.engine_stream g k (with_domains options domains) conjunct in
      List.sort compare actual = expected)
    (domains_under_test ())

let diff_prop name ~count ~mode options =
  QCheck2.Test.make ~name ~count (gen_instance ~mode) (fun inst -> agree ?options inst)

let exact_prop = diff_prop "frozen engine = oracle (exact)" ~count:60 ~mode:Q.Exact None
let approx_prop = diff_prop "frozen engine = oracle (APPROX)" ~count:50 ~mode:Q.Approx None
let relax_prop = diff_prop "frozen engine = oracle (RELAX)" ~count:50 ~mode:Q.Relax None

let distance_aware = Some { Core.Options.default with Core.Options.distance_aware = true }

let approx_da_prop =
  diff_prop "distance-aware = oracle (APPROX)" ~count:35 ~mode:Q.Approx distance_aware

let relax_da_prop =
  diff_prop "distance-aware = oracle (RELAX)" ~count:25 ~mode:Q.Relax distance_aware

let unbatched_prop =
  diff_prop "unbatched seeding = oracle (exact)" ~count:25 ~mode:Q.Exact
    (Some { Core.Options.default with Core.Options.batch_size = max_int })

let decomposed_prop =
  QCheck2.Test.make ~name:"decomposed = oracle (APPROX alternation)" ~count:35
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) gen_regex)
    (fun (inst, extra) ->
      (* force a top-level alternation so decomposition actually kicks in *)
      let inst = { inst with regex = R.Alt (inst.regex, extra) } in
      agree ~options:{ Core.Options.default with Core.Options.decompose = true } inst)

(* Automata of 64 states and more: the visited set's state bitsets span
   two words or more. *)
let long_prop name ~count ~mode =
  QCheck2.Test.make ~name ~count (gen_long_instance ~mode) (fun inst -> agree inst)

let long_exact_prop = long_prop "frozen engine = oracle (exact, >= 64 states)" ~count:40 ~mode:Q.Exact
let long_approx_prop = long_prop "frozen engine = oracle (APPROX, >= 64 states)" ~count:10 ~mode:Q.Approx

(* --- emission order ---------------------------------------------------- *)

let hetero_costs =
  { Core.Options.ins = 2; del = 2; sub = 4; beta = 2; gamma = 3 }

(* No duplicate (x, y) pair in the whole stream, and distances never drop
   below the running maximum by more than [slack].  Swept over the domain
   counts: a levelled stream is sequential at any count, so [slack] and the
   dup-pair ban hold there as they do on one domain; a seed-sharded plain
   stream's canonical order is stricter than [slack = 0], and no pair can
   come from two shards, since each shard owns its seeds' x. *)
let well_ordered options inst =
  let g, k = build inst in
  let conjunct = conjunct_of inst in
  let levelled =
    options.Core.Options.distance_aware
    || (options.Core.Options.decompose
       && List.length (R.top_level_alternatives conjunct.Q.regex) > 1)
  in
  let slack = if levelled then Core.Options.phi options conjunct.Q.cmode - 1 else 0 in
  List.for_all
    (fun domains ->
      let stream = Oracle.engine_stream g k (with_domains options domains) conjunct in
      let seen = Hashtbl.create 64 in
      let hi = ref 0 in
      List.for_all
        (fun (x, y, d) ->
          let fresh = not (Hashtbl.mem seen (x, y)) in
          Hashtbl.replace seen (x, y) ();
          let ordered = d >= !hi - slack in
          if d > !hi then hi := d;
          fresh && ordered)
        stream)
    (domains_under_test ())

let order_prop name ~count ~mode options =
  QCheck2.Test.make ~name ~count (gen_instance ~mode) (well_ordered options)

let plain_order_prop =
  order_prop "plain emission: strict non-decreasing, no dup pairs (hetero APPROX)" ~count:30
    ~mode:Q.Approx
    { Core.Options.default with Core.Options.costs = hetero_costs }

let da_order_prop =
  order_prop "distance-aware emission: slack phi-1, no dup pairs (hetero APPROX)" ~count:30
    ~mode:Q.Approx
    { Core.Options.default with Core.Options.costs = hetero_costs; distance_aware = true }

let da_relax_order_prop =
  order_prop "distance-aware emission: slack phi-1, no dup pairs (hetero RELAX)" ~count:20
    ~mode:Q.Relax
    { Core.Options.default with Core.Options.costs = hetero_costs; distance_aware = true }

let da_exact_order_prop =
  order_prop "distance-aware emission: strict for exact (phi = 1)" ~count:20 ~mode:Q.Exact
    { Core.Options.default with Core.Options.distance_aware = true }

let decomposed_order_prop =
  QCheck2.Test.make
    ~name:"decomposed emission: slack phi-1, no dup pairs across level restarts" ~count:30
    (QCheck2.Gen.pair (gen_instance ~mode:Q.Approx) gen_regex)
    (fun (inst, extra) ->
      let inst = { inst with regex = R.Alt (inst.regex, extra) } in
      well_ordered
        { Core.Options.default with Core.Options.costs = hetero_costs; decompose = true }
        inst)

let () =
  Alcotest.run "oracle"
    [
      ( "engine = oracle",
        [
          QCheck_alcotest.to_alcotest exact_prop;
          QCheck_alcotest.to_alcotest approx_prop;
          QCheck_alcotest.to_alcotest relax_prop;
          QCheck_alcotest.to_alcotest approx_da_prop;
          QCheck_alcotest.to_alcotest relax_da_prop;
          QCheck_alcotest.to_alcotest decomposed_prop;
          QCheck_alcotest.to_alcotest unbatched_prop;
          QCheck_alcotest.to_alcotest long_exact_prop;
          QCheck_alcotest.to_alcotest long_approx_prop;
        ] );
      ( "emission order",
        [
          QCheck_alcotest.to_alcotest plain_order_prop;
          QCheck_alcotest.to_alcotest da_order_prop;
          QCheck_alcotest.to_alcotest da_relax_order_prop;
          QCheck_alcotest.to_alcotest da_exact_order_prop;
          QCheck_alcotest.to_alcotest decomposed_order_prop;
        ] );
    ]
