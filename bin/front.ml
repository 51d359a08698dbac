(* The front end omega_cli and omega_serve share: the dataset flags and
   their loader, the engine flags as one [Core.Options.t] term, and the
   start-up of the audit log and the failpoints.  Each flag is defined
   here once, so the two binaries cannot drift apart on its name, its
   default or what it does. *)

open Cmdliner

(* --- the dataset ------------------------------------------------------ *)

let data =
  Arg.(required & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Triple file to load.")

let lenient =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:"Skip malformed triple lines, listing each on stderr, instead of aborting the load.")

(* Load and freeze (the CSR index is built before any query is timed or
   served); a parse or I/O error exits 2. *)
let load ~lenient path =
  match Ntriples.Nt.load_report ~lenient path with
  | (graph, ontology), report ->
    if report.Ntriples.Nt.malformed > 0 then begin
      Printf.eprintf "%s: skipped %d malformed line(s) (kept %d triples):\n" path
        report.Ntriples.Nt.malformed report.Ntriples.Nt.triples;
      List.iter
        (fun (msg, line) -> Printf.eprintf "  %s:%d: %s\n" path line msg)
        report.Ntriples.Nt.errors
    end;
    Graphstore.Graph.freeze graph;
    (graph, ontology)
  | exception Ntriples.Nt.Parse_error (msg, line) ->
    Printf.eprintf "%s:%d: %s (rerun with --lenient to skip malformed lines)\n" path line msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* --- the engine flags ------------------------------------------------- *)

let options =
  let distance_aware =
    Arg.(value & flag & info [ "distance-aware" ] ~doc:"Enable distance-aware retrieval (§4.3).")
  in
  let decompose =
    Arg.(value & flag & info [ "decompose" ] ~doc:"Enable alternation-by-disjunction decomposition (§4.3).")
  in
  let domains =
    Arg.(
      value
      & opt int (Core.Options.domains_from_env ())
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "The emission order of plain $(b,(?X, R, ?Y)) conjuncts (default 1, or \
             \\$OMEGA_DOMAINS).  With N=1 they stream in the paper's order: non-decreasing \
             distance, ties in queue order.  With N>=2 they stream the same answers in \
             ascending (distance, x, y) order, identical at any N>=2, computed on one domain.  \
             Constant-seeded, distance-aware and decomposed conjuncts ignore it.")
  in
  let max_tuples =
    Arg.(
      value & opt (some int) None
      & info [ "max-tuples"; "budget" ] ~docv:"N"
          ~doc:
            "Stop a query after N tuples have been queued (memory stand-in; cumulative over \
             conjuncts, joins and distance-aware restarts), with exit code 4.  Answers emitted \
             so far are kept.  In the server it is the default, which a request can only \
             tighten.")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline per query.  On expiry the answers found so far (a valid ranked \
             prefix) are returned with exit code 3.  In the server it is the default, which a \
             request can only tighten.")
  in
  let max_states =
    Arg.(
      value & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Admission control: reject a query (exit code 6, before touching the graph) if any \
             conjunct's automaton, after APPROX/RELAX expansion, has more than N states.")
  in
  let make distance_aware decompose domains max_tuples timeout_ms max_states =
    {
      Core.Options.default with
      distance_aware;
      decompose;
      domains;
      max_tuples;
      timeout_ns = Option.map (fun ms -> ms * 1_000_000) timeout_ms;
      max_states;
    }
  in
  Term.(const make $ distance_aware $ decompose $ domains $ max_tuples $ timeout_ms $ max_states)

(* --- audit log and failpoints ----------------------------------------- *)

let audit =
  Arg.(
    value & opt (some string) None
    & info [ "audit" ] ~docv:"FILE"
        ~doc:
          "Append one schema-versioned JSON line per query to FILE (the query observatory's \
           audit log; see $(b,omega_report)).  Also read from \\$OMEGA_AUDIT.  Crash-safe: each \
           record is written and flushed atomically.  The server reopens FILE on SIGHUP, so log \
           rotation needs no restart.")

let failpoints =
  Arg.(
    value & opt (some string) None
    & info [ "failpoints" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection points once at start-up, e.g. $(b,scan=0.01,join=0.05#42) \
           (point=probability, $(b,#seed) for determinism).  Also read from \
           \\$OMEGA_FAILPOINTS.  Engine points (scan, seed, join, onto) end a query gracefully \
           with exit code 5; server points (accept, read, write) abort one connection, never the \
           daemon.  A bad spec exits 2.")

(* Open the audit log and arm the failpoints, each from its flag or else
   the environment; exits 2 when the log cannot be opened or the spec does
   not parse.  Returns the audit log's path, if any. *)
let start ~audit ~failpoints =
  let audit = match audit with Some _ -> audit | None -> Sys.getenv_opt Obs.Audit.env_var in
  (match audit with
  | None -> ()
  | Some path -> (
    try Obs.Audit.enable path
    with Sys_error msg ->
      Printf.eprintf "cannot open audit log: %s\n" msg;
      exit 2));
  let armed =
    match failpoints with
    | Some spec -> Core.Failpoints.arm_spec spec
    | None -> Result.map ignore (Core.Failpoints.arm_from_env ())
  in
  (match armed with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "bad failpoint spec: %s\n" msg;
    exit 2);
  audit
