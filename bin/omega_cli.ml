(* The omega command-line tool: generate workloads, inspect graphs, and run
   CRP queries with APPROX/RELAX against a triple file.

     omega generate --dataset l4all --scale L2 -o l2.nt
     omega stats -d l2.nt
     omega query -d l2.nt --limit 10 "(?X) <- APPROX (Librarians, type-, ?X)"
*)

open Cmdliner

(* --- generate ------------------------------------------------------- *)

let generate_cmd =
  let dataset =
    Arg.(
      required
      & opt (some (enum [ ("l4all", `L4all); ("yago", `Yago) ])) None
      & info [ "dataset" ] ~docv:"NAME" ~doc:"Workload to generate: $(b,l4all) or $(b,yago).")
  in
  let scale =
    Arg.(
      value & opt string "L1"
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:
            "For l4all: one of L1, L2, L3, L4 (timeline counts 143/1,201/5,221/11,416) or an \
             explicit number of timelines. For yago: a float scale factor (1.0 = full YAGO size).")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"INT" ~doc:"Generator seed.")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output triple file.")
  in
  let run dataset scale seed output =
    let graph, ontology =
      match dataset with
      | `L4all -> (
        let named =
          List.find_opt (fun s -> Datagen.L4all.scale_name s = scale) Datagen.L4all.all_scales
        in
        match named with
        | Some s -> Datagen.L4all.generate ?seed ~timelines:(Datagen.L4all.timelines s) ()
        | None -> (
          match int_of_string_opt scale with
          | Some n -> Datagen.L4all.generate ?seed ~timelines:n ()
          | None ->
            Printf.eprintf "bad l4all scale %S (expected L1..L4 or a timeline count)\n" scale;
            exit 2))
      | `Yago ->
        let params =
          match float_of_string_opt scale with
          | Some f when scale <> "L1" ->
            { Datagen.Yago_sim.default_params with Datagen.Yago_sim.scale = f }
          | _ -> Datagen.Yago_sim.default_params
        in
        let params =
          match seed with
          | Some s -> { params with Datagen.Yago_sim.seed = s }
          | None -> params
        in
        Datagen.Yago_sim.generate ~params ()
    in
    Ntriples.Nt.save output ~graph ~ontology;
    let s = Graphstore.Graph.stats graph in
    Printf.printf "wrote %s: %d nodes, %d edges, %d labels\n" output s.Graphstore.Graph.nodes
      s.Graphstore.Graph.edges s.Graphstore.Graph.distinct_labels
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic workload graph (L4All timelines or YAGO-shaped).")
    Term.(const run $ dataset $ scale $ seed $ output)

(* --- stats ---------------------------------------------------------- *)

let stats_cmd =
  let run data lenient =
    let graph, ontology = Front.load ~lenient data in
    Format.printf "graph: %a@." Graphstore.Graph.pp_stats (Graphstore.Graph.stats graph);
    let interner = Graphstore.Graph.interner graph in
    List.iter
      (fun root ->
        Format.printf "class hierarchy: %a@."
          (Ontology.pp_hierarchy_stats interner)
          (Ontology.class_hierarchy_stats ontology root))
      (Ontology.class_roots ontology);
    List.iter
      (fun root ->
        Format.printf "property hierarchy: %a@."
          (Ontology.pp_hierarchy_stats interner)
          (Ontology.property_hierarchy_stats ontology root))
      (Ontology.property_roots ontology)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print graph and ontology statistics.")
    Term.(const run $ Front.data $ Front.lenient)

(* --- saturate ------------------------------------------------------- *)

let saturate_cmd =
  let output =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the saturated triple file.")
  in
  let no_subclass = Arg.(value & flag & info [ "no-subclass" ] ~doc:"Skip rdfs9 (subclass).") in
  let no_subproperty =
    Arg.(value & flag & info [ "no-subproperty" ] ~doc:"Skip rdfs7 (subproperty).")
  in
  let no_domain_range =
    Arg.(value & flag & info [ "no-domain-range" ] ~doc:"Skip rdfs2/rdfs3 (domain/range).")
  in
  let run data lenient output no_subclass no_subproperty no_domain_range =
    let graph, ontology = Front.load ~lenient data in
    let before = Graphstore.Graph.n_edges graph in
    let stats =
      Rdfs.saturate ~subclass:(not no_subclass) ~subproperty:(not no_subproperty)
        ~domain_range:(not no_domain_range) graph ontology
    in
    Ntriples.Nt.save output ~graph ~ontology;
    Format.printf "saturated %d -> %d edges (%a); wrote %s@." before
      (Graphstore.Graph.n_edges graph)
      Rdfs.pp_stats stats output
  in
  Cmd.v
    (Cmd.info "saturate"
       ~doc:
         "Materialise the RDFS entailments (rdfs2/3/7/9) of a triple file into the data graph — \
          the space-hungry alternative to query-time RELAX.")
    Term.(
      const run $ Front.data $ Front.lenient $ output $ no_subclass $ no_subproperty
      $ no_domain_range)

(* --- query ---------------------------------------------------------- *)

let query_cmd =
  let query =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The CRP query text.")
  in
  let limit =
    Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N" ~doc:"Maximum number of answers (ranked).")
  in
  let max_answers =
    Arg.(
      value & opt (some int) None
      & info [ "max-answers" ] ~docv:"N"
          ~doc:"Stop cleanly after N answers (like $(b,--limit), but reported as a governor trip).")
  in
  let max_memory_mb =
    Arg.(
      value & opt (some int) None
      & info [ "max-memory-mb" ] ~docv:"MB"
          ~doc:
            "Memory budget for the evaluation's dominant structures (queues, visited sets, \
             provenance, join state), tracked by the engine's cost model.  Under pressure the \
             engine degrades gracefully — drops provenance arenas, then declines ψ window growth \
             — before terminating with exit code 4; the answers printed are still a correct \
             ranked prefix.")
  in
  let max_product_est =
    Arg.(
      value & opt (some int) None
      & info [ "max-product-est" ] ~docv:"N"
          ~doc:
            "Admission control: reject the query (exit code 6) if the estimated product-automaton \
             frontier — automaton states times estimated seed nodes, summed over conjuncts — \
             exceeds N.")
  in
  let edit_cost =
    Arg.(value & opt int 1 & info [ "edit-cost" ] ~docv:"C" ~doc:"Cost of each APPROX edit operation.")
  in
  let relax_cost =
    Arg.(value & opt int 1 & info [ "relax-cost" ] ~docv:"C" ~doc:"Cost of each RELAX step.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print execution counters and the metrics registry (histograms).")
  in
  let stats_json =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write the query's audit record — execution counters, GC deltas, latency, termination, \
             admission estimate vs actual, per-shard breakdown — as a single JSON object to FILE \
             ($(b,-) for stdout).  Same codec as $(b,--audit) records.")
  in
  let flight =
    Arg.(
      value & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Turn on the flight recorder at its per-answer detail level and dump its event log \
             (shard deliveries, bucket seals with their bound inputs, merge emits, park/unpark, \
             governor trips, and the timeline spans $(b,--trace) exports) to FILE as JSONL when \
             the query closes.  Also read from \\$OMEGA_FLIGHT.  Inspect with \
             $(b,omega_report --flight).")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the physical plan — per-conjunct automata ($(b,M_R)/$(b,A_R)/$(b,M^K_R)) with \
             their sizes, evaluation strategies, seeding regimes, join method and governor limits \
             — without running the query.")
  in
  let explain_analyze =
    Arg.(
      value & flag
      & info [ "explain-analyze" ]
          ~doc:
            "Run the query, then print the plan annotated with the live execution counters of \
             each conjunct (implies running; combine with $(b,--limit) etc. as usual).")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Turn on the flight recorder and write its timeline (automaton build phases, seed \
             batches, ψ windows, join pulls, governor trips) to FILE as a Chrome trace_event \
             document — loadable in chrome://tracing or Perfetto.  When provenance is on ($(b,--why)/$(b,--profile)), the \
             wasted-work profile is embedded in the export's top-level object.")
  in
  let why =
    Arg.(
      value & flag
      & info [ "why" ]
          ~doc:
            "Print each answer's witness under it: the data path traversed and the \
             edit/relaxation script whose operation costs sum to the reported distance.  Enables \
             provenance tracking (parent pointers on queued tuples).")
  in
  let why_json =
    Arg.(
      value & opt (some string) None
      & info [ "why-json" ] ~docv:"FILE"
          ~doc:
            "Write the answers with their witnesses as JSON to FILE (implies provenance tracking \
             like $(b,--why)).")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the wasted-work query profile: tuples popped vs answers emitted per distance \
             bucket, discard attribution (visited dedup / duplicate finals / ψ pruning / tuples \
             left queued) and per-operation cost totals.  Enables provenance tracking.")
  in
  let run data lenient query limit options max_answers max_memory_mb max_product_est edit_cost
      relax_cost show_stats stats_json audit failpoints flight explain_flag explain_analyze trace
      why why_json profile_flag =
    let wall_ns () = int_of_float (1e9 *. Unix.gettimeofday ()) in
    let audit = Front.start ~audit ~failpoints in
    let flight = match flight with Some _ -> flight | None -> Sys.getenv_opt Obs.Flight.env_var in
    (* One shared init for every time source: scan-time attribution, governor
       deadlines and trace timestamps all read the same installed clock.
       (Separate conditional installs used to leave scan_ns silently 0 when
       only a deadline was requested.) *)
    if
      show_stats || explain_analyze || options.Core.Options.timeout_ns <> None || trace <> None
      || audit <> None || stats_json <> None || flight <> None
    then Obs.Clock.install wall_ns;
    (* --trace and --flight switch on the one recorder: a timeline keeps a
       deeper ring, a flight dump adds the per-answer detail level *)
    if trace <> None || flight <> None then begin
      Obs.Flight.set_dump_target flight;
      Obs.Flight.enable
        ?capacity:(if trace <> None then Some 65536 else None)
        ~detail:(flight <> None) ()
    end;
    let graph, ontology = Front.load ~lenient data in
    let options =
      {
        options with
        Core.Options.costs =
          {
            Core.Options.ins = edit_cost;
            del = edit_cost;
            sub = edit_cost;
            beta = relax_cost;
            gamma = relax_cost;
          };
        max_answers;
        max_memory_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_memory_mb;
        max_product_est;
        (* --explain-analyze turns provenance on too, so its profile section
           includes the per-operation cost totals (fed by witnesses) *)
        provenance = why || why_json <> None || profile_flag || explain_analyze;
      }
    in
    let export_trace ?(extra = []) () =
      match trace with
      | None -> ()
      | Some path ->
        let n = Obs.Trace.export ~extra path in
        Format.printf "trace written to %s (%d event(s))@." path n
    in
    match Core.Query_parser.parse_result query with
    | Error msg ->
      Printf.eprintf "query error: %s\n" msg;
      exit 2
    | Ok q -> (
      if explain_flag && not explain_analyze then (
        match Core.Engine.explain ~graph ~ontology ~options q with
        | plan ->
          Format.printf "%a@." Obs.Explain.pp plan;
          export_trace ()
        | exception Invalid_argument msg ->
          Printf.eprintf "query error: %s\n" msg;
          exit 2)
      else
        let t0 = Unix.gettimeofday () in
        match
          let governor = Core.Options.governor ~limit options in
          let st = Core.Engine.open_query ~graph ~ontology ~options ~governor q in
          (st, Core.Engine.drain ~limit st)
        with
        | exception Invalid_argument msg ->
          Printf.eprintf "query error: %s\n" msg;
          exit 2
        | st, outcome ->
          let node oid = Graphstore.Graph.node_label graph oid in
          let label l = Graphstore.Interner.name (Graphstore.Graph.interner graph) l in
          List.iteri
            (fun i a ->
              Format.printf "%3d. %a@." (i + 1) Core.Engine.pp_answer a;
              if why then
                List.iter
                  (fun w -> Format.printf "     @[<v>%a@]@." (Core.Witness.pp ~node ~label) w)
                  a.Core.Engine.witnesses)
            outcome.Core.Engine.answers;
          (match why_json with
          | None -> ()
          | Some path ->
            let answers_json =
              Core.Engine.answers_json ~witness:(Core.Witness.to_json ~node ~label)
                outcome.Core.Engine.answers
            in
            let oc = open_out path in
            Obs.Json.to_channel oc (Obs.Json.Obj [ ("answers", answers_json) ]);
            output_char oc '\n';
            close_out oc;
            Format.printf "witnesses written to %s@." path);
          if explain_analyze then begin
            let plan = Core.Engine.explain ~graph ~ontology ~options q in
            Core.Engine.annotate st plan;
            Format.printf "%a@." Obs.Explain.pp plan
          end;
          (match outcome.Core.Engine.termination with
          | Core.Engine.Completed -> ()
          | Core.Engine.Exhausted _ ->
            Format.printf "-- partial: %a (the ranked prefix above is still correct)@."
              Core.Engine.pp_termination outcome.Core.Engine.termination
          | Core.Engine.Rejected r ->
            Format.printf "-- rejected by admission control: %a@." Core.Admission.pp_rejection r);
          Format.printf "%d answer(s) in %.2f ms@."
            (List.length outcome.Core.Engine.answers)
            (1000. *. (Unix.gettimeofday () -. t0));
          if show_stats then begin
            Format.printf "stats: %a@." Core.Exec_stats.pp outcome.Core.Engine.stats;
            Format.printf "metrics:@.%a@." Obs.Metrics.pp outcome.Core.Engine.metrics
          end;
          (match stats_json with
          | None -> ()
          | Some target ->
            let line = Obs.Json.to_string (Obs.Audit.to_json (Core.Engine.audit_record st)) in
            if target = "-" then print_endline line
            else begin
              let oc = open_out target in
              output_string oc line;
              output_char oc '\n';
              close_out oc;
              Format.printf "stats written to %s@." target
            end);
          (match flight with
          | None -> ()
          | Some path ->
            let recorded, dropped = Obs.Flight.stats () in
            Format.printf "flight recorded to %s (%d event(s), %d dropped)@." path recorded dropped);
          let profile = Obs.Profile.of_metrics outcome.Core.Engine.metrics in
          if profile_flag then Format.printf "%a@." Obs.Profile.pp profile;
          export_trace
            ~extra:
              (if options.Core.Options.provenance then
                 [ ("profile", Obs.Profile.to_json profile) ]
               else [])
            ();
          let code = Core.Engine.exit_code outcome.Core.Engine.termination in
          if code <> 0 then exit code)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a CRP query (with optional APPROX/RELAX conjuncts) against a triple file.")
    Term.(
      const run $ Front.data $ Front.lenient $ query $ limit $ Front.options $ max_answers
      $ max_memory_mb $ max_product_est $ edit_cost $ relax_cost $ show_stats $ stats_json
      $ Front.audit $ Front.failpoints $ flight $ explain_flag $ explain_analyze $ trace $ why
      $ why_json $ profile_flag)

let () =
  let doc = "flexible regular path queries over graph data (APPROX / RELAX)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "omega" ~version:"1.0.0" ~doc) [ generate_cmd; stats_cmd; saturate_cmd; query_cmd ]))
