(* Exploring a heterogeneous knowledge graph (the YAGO-shaped workload):
   the paper's Examples 1-3, live.

   A user who does not know the schema writes a plausible query, gets
   nothing back, and lets APPROX/RELAX find what they meant.

     dune exec examples/knowledge_explorer.exe
*)

let () =
  let graph, ontology = Datagen.Yago_sim.generate () in
  let s = Graphstore.Graph.stats graph in
  Format.printf "YAGO-shaped graph: %d nodes, %d edges, %d edge labels@." s.Graphstore.Graph.nodes
    s.Graphstore.Graph.edges s.Graphstore.Graph.distinct_labels;

  let show ?(limit = 8) ?(options = Core.Options.default) title query =
    Format.printf "@.== %s@.   %s@." title query;
    match Core.Engine.run_string ~graph ~ontology ~options ~limit query with
    | Ok outcome ->
      List.iter (fun a -> Format.printf "   %a@." Core.Engine.pp_answer a) outcome.Core.Engine.answers;
      (match outcome.Core.Engine.termination with
      | Core.Engine.Exhausted { reason = Core.Governor.Tuple_budget; _ } ->
        Format.printf "   -- aborted on tuple budget@."
      | _ -> ());
      if outcome.Core.Engine.answers = [] then Format.printf "   (no answers)@."
    | Error msg -> Format.printf "   error: %s@." msg
  in

  (* Example 1 (paper §2): people who graduated from an institution
     located in the UK.  The user's query direction is wrong — only
     people graduate, and only places/events are located — so the exact
     answer is empty. *)
  show "Example 1 — exact query, wrong shape, no answers"
    "(?X) <- (UK, locatedIn-.gradFrom, ?X)";

  (* Example 2: APPROX repairs the query by substituting the last label
     (effectively gradFrom -> gradFrom-), at edit distance 1-2. *)
  show "Example 2 — APPROX corrects the error"
    "(?X) <- APPROX (UK, locatedIn-.gradFrom, ?X)";

  (* Example 3: RELAX instead climbs the property hierarchy: gradFrom's
     super-property relationLocatedByObject also matches happenedIn,
     participatedIn, locatedIn... *)
  show "Example 3 — RELAX generalises gradFrom via the ontology"
    "(?X) <- RELAX (UK, locatedIn-.gradFrom, ?X)";

  (* Flexible operators are per-conjunct: mix an exact anchor with an
     approximated tail in one conjunctive query. *)
  show "Mixed conjuncts: exact anchor + approximated hop"
    "(?C, ?P) <- (UK, locatedIn-, ?C), APPROX (?C, gradFrom, ?P)";

  (* Li Peng's family tree, the paper's YAGO query Q2. *)
  show "Prize-winning fellow alumni of Li Peng's children (exact)"
    "(?X) <- (Li_Peng, hasChild.gradFrom.gradFrom-.hasWonPrize, ?X)";
  show "... and at edit distance 1 (APPROX)"
    "(?X) <- APPROX (Li_Peng, hasChild.gradFrom.gradFrom-.hasWonPrize, ?X)"
