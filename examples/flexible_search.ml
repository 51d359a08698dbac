(* Driving the engine through its streaming API: incremental batches,
   execution statistics, the distance-aware and decomposition
   optimisations, and tuple budgets.

     dune exec examples/flexible_search.exe
*)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let () =
  let graph, ontology = Datagen.Yago_sim.generate () in

  (* 1. Incremental retrieval: open a query stream and pull answers in
     batches of 10, as the paper's evaluation protocol does (batch 1 =
     answers 1-10, batch 2 = 11-20, ...). *)
  let query =
    Core.Query_parser.parse "(?X) <- APPROX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)"
  in
  let stream = Core.Engine.open_query ~graph ~ontology query in
  Format.printf "== Incremental batches (10 answers each)@.";
  for batch = 1 to 3 do
    let answers =
      List.filter_map (fun _ -> Core.Engine.next stream) (List.init 10 (fun i -> i))
    in
    Format.printf "batch %d:" batch;
    List.iter
      (fun (a : Core.Engine.answer) ->
        Format.printf " %s@@%d" (snd (List.hd a.Core.Engine.bindings)) a.Core.Engine.distance)
      answers;
    Format.printf "@."
  done;
  Format.printf "counters after 3 batches: %a@.@." Core.Exec_stats.pp
    (Core.Engine.stream_stats stream);

  (* 2. The same query with and without the two §4.3 optimisations. *)
  let run options =
    time (fun () ->
        match
          Core.Engine.run ~graph ~ontology ~options ~limit:100 query
        with
        | outcome -> List.length outcome.Core.Engine.answers)
  in
  let n0, t0 = run Core.Options.default in
  let n1, t1 = run { Core.Options.default with Core.Options.distance_aware = true } in
  let n2, t2 = run { Core.Options.default with Core.Options.decompose = true } in
  Format.printf "== Optimisations on the top-100 retrieval@.";
  Format.printf "plain            : %3d answers in %6.2f ms@." n0 t0;
  Format.printf "distance-aware   : %3d answers in %6.2f ms (%.1fx)@." n1 t1 (t0 /. t1);
  Format.printf "decomposed       : %3d answers in %6.2f ms (%.1fx)@.@." n2 t2 (t0 /. t2);

  (* 3. Tuple budgets: the wide-open APPROX query the paper could not
     finish in 6 GB; we cap it deterministically instead. *)
  let wide = Core.Query_parser.parse "(?X, ?Y) <- APPROX (?X, isConnectedTo.wasBornIn, ?Y)" in
  let options = { Core.Options.default with Core.Options.max_tuples = Some 400_000 } in
  let outcome = Core.Engine.run ~graph ~ontology ~options ~limit:100 wide in
  Format.printf "== Budgeted wide-open APPROX query@.";
  Format.printf "%d answers before the cut: %a (the paper's '?')@."
    (List.length outcome.Core.Engine.answers)
    Core.Engine.pp_termination outcome.Core.Engine.termination;

  (* 3b. Deadlines work the same way: install a clock, set timeout_ns, and
     the stream stops with a [Deadline] termination instead of raising. *)
  Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
  let options = { Core.Options.default with Core.Options.timeout_ns = Some 20_000_000 } in
  let outcome = Core.Engine.run ~graph ~ontology ~options ~limit:max_int wide in
  Format.printf "20 ms deadline: %d answers, %a@."
    (List.length outcome.Core.Engine.answers)
    Core.Engine.pp_termination outcome.Core.Engine.termination;

  (* 4. Costs are configurable: make substitutions cheap and deletions
     expensive, and the ranking changes. *)
  let costs = { Core.Options.default_costs with Core.Options.sub = 1; del = 5; ins = 5 } in
  let options = { Core.Options.default with Core.Options.costs } in
  let outcome =
    Core.Engine.run ~graph ~ontology ~options ~limit:5
      (Core.Query_parser.parse "(?X) <- APPROX (wordnet_ziggurat, type-.locatedIn-, ?X)")
  in
  Format.printf "@.== Custom edit costs (sub=1, del=ins=5)@.";
  List.iter (fun a -> Format.printf "   %a@." Core.Engine.pp_answer a) outcome.Core.Engine.answers
