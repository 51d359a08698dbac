(* Validator for the observability artefacts, run by CI:

     validate BENCH_fig5.json ...        # schema-check benchmark exports
     validate --manifest FILE            # a live stream's metric names vs the pinned manifest
     validate --trace FILE               # Chrome trace structure + span nesting
     validate --audit FILE               # audit-log (JSONL) schema check
     validate --flight FILE              # flight-dump (JSONL) strict schema check
     validate --compare PARENT CHANGE    # paired timing gate over JSONL run results

   Exits non-zero with a message on the first violation, so a schema drift,
   a silently renamed metric, an unbalanced span pair or a metric whose
   paired median got worse than its bound fails the build.  A trace
   whose rings overflowed (top-level "dropped" > 0) is reported as a
   warning: the file is valid but truncated. *)

module Json = Obs.Json

let failf fmt =
  Printf.ksprintf
    (fun s ->
      flush stdout;
      prerr_endline ("validate: " ^ s);
      exit 1)
    fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> failf "%s" msg

let parse_file path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> failf "%s: not valid JSON: %s" path msg

let get path what j k = match Json.member k j with Some v -> v | None -> failf "%s: %s is missing %S" path what k
let want_int path what v k = match Json.to_int (get path what v k) with Some n -> n | None -> failf "%s: %s field %S is not an integer" path what k
let want_str path what v k = match Json.to_str (get path what v k) with Some s -> s | None -> failf "%s: %s field %S is not a string" path what k

(* --- BENCH_<section>.json (bench/bench_schema.json, schema_version 2) --- *)

let known_markers = [ "?"; "T"; "M"; "F"; "R" ]
let known_modes = [ "exact"; "approx"; "relax" ]

let check_result path i r =
  let what = Printf.sprintf "results[%d]" i in
  List.iter (fun k -> ignore (want_str path what r k)) [ "dataset"; "scale"; "query"; "termination" ];
  let mode = want_str path what r "mode" in
  if not (List.mem mode known_modes) then failf "%s: %s has unknown mode %S" path what mode;
  let mean = want_int path what r "mean_ns" in
  let min_ns = want_int path what r "min_ns" in
  let max_ns = want_int path what r "max_ns" in
  if not (min_ns <= mean && mean <= max_ns) then
    failf "%s: %s violates min_ns <= mean_ns <= max_ns (%d / %d / %d)" path what min_ns mean max_ns;
  if want_int path what r "answers" < 0 then failf "%s: %s has negative answers" path what;
  if want_int path what r "tuples" < 0 then failf "%s: %s has negative tuples" path what;
  if want_int path what r "mem_bytes_peak" < 0 then failf "%s: %s has negative mem_bytes_peak" path what;
  match get path what r "marker" with
  | Json.Null -> ()
  | Json.String m when List.mem m known_markers -> ()
  | Json.String m -> failf "%s: %s has unknown marker %S (expected ? T M F R or null)" path what m
  | _ -> failf "%s: %s field \"marker\" is neither a string nor null" path what

let check_bench path =
  let j = parse_file path in
  let version = want_int path "document" j "schema_version" in
  if version <> 2 then failf "%s: unsupported schema_version %d (expected 2)" path version;
  ignore (want_str path "document" j "section");
  if want_int path "document" j "runs" < 1 then failf "%s: runs < 1" path;
  match Json.to_list (get path "document" j "results") with
  | None -> failf "%s: \"results\" is not an array" path
  | Some results ->
    List.iteri (check_result path) results;
    Printf.printf "validate: %s ok (%d result(s))\n" path (List.length results)

(* --- metric-name manifest ------------------------------------------- *)

(* The live metric surface: the registry of a real stream that reaches
   every layer that registers a metric — two joined conjuncts (the ranked
   join), APPROX and RELAX (the per-operation histograms), two domains (the
   canonical order) and provenance on. *)
let live_metric_names () =
  let module Graph = Graphstore.Graph in
  let g = Graph.create () in
  let n = Array.init 6 (fun i -> Graph.add_node g (Printf.sprintf "n%d" i)) in
  List.iter
    (fun (x, l, y) -> Graph.add_edge_s g n.(x) l n.(y))
    [ (0, "p", 1); (1, "p", 2); (2, "q", 3); (3, "q", 4); (1, "r", 5); (5, "q", 0) ];
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subproperty k "r" "p";
  Graph.freeze g;
  let options = { Core.Options.default with Core.Options.domains = 2; provenance = true } in
  match
    Core.Engine.run_string ~graph:g ~ontology:k ~options ~limit:max_int
      "(?X, ?Y) <- APPROX (?X, p.q, ?Z), RELAX (?Z, r, ?Y)"
  with
  | Ok o -> Obs.Metrics.names o.Core.Engine.metrics
  | Error msg -> failf "--manifest: the probe query failed: %s" msg

let check_manifest path =
  let live = live_metric_names () in
  let pinned =
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None else Some l)
  in
  let missing = List.filter (fun n -> not (List.mem n live)) pinned in
  let unpinned = List.filter (fun n -> not (List.mem n pinned)) live in
  if missing <> [] then
    failf "%s pins metric(s) the engine no longer exposes: %s — a rename breaks dashboards; \
           deprecate explicitly by editing the manifest" path (String.concat ", " missing);
  if unpinned <> [] then
    failf "engine exposes metric(s) not pinned in %s: %s — add them to the manifest" path
      (String.concat ", " unpinned);
  Printf.printf "validate: %s ok (%d metric name(s))\n" path (List.length pinned)

(* --- Chrome trace files --------------------------------------------- *)

(* Spans must nest per timeline row (tid).  When the rings dropped events
   (top-level "dropped" > 0) the export is a truncated suffix: a close whose
   open was overwritten is expected and only warned about; a complete trace
   must balance exactly. *)
let check_trace path =
  let j = parse_file path in
  let events =
    match Json.to_list (get path "document" j "traceEvents") with
    | Some l -> l
    | None -> failf "%s: \"traceEvents\" is not an array" path
  in
  let dropped =
    match Json.member "dropped" j with
    | None -> 0
    | Some v -> ( match Json.to_int v with Some d -> d | None -> failf "%s: \"dropped\" is not an integer" path)
  in
  let depth = Hashtbl.create 4 in
  let orphans = ref 0 in
  List.iteri
    (fun i e ->
      let what = Printf.sprintf "traceEvents[%d]" i in
      ignore (want_str path what e "name");
      ignore (want_str path what e "cat");
      let tid = want_int path what e "tid" in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
      (match Json.to_float (get path what e "ts") with
      | Some _ -> ()
      | None -> failf "%s: %s field \"ts\" is not a number" path what);
      match want_str path what e "ph" with
      | "B" -> Hashtbl.replace depth tid (d + 1)
      | "E" when d > 0 -> Hashtbl.replace depth tid (d - 1)
      | "E" when dropped > 0 -> incr orphans
      | "E" -> failf "%s: %s closes a span that was never opened" path what
      | "i" | "M" -> ()
      | "X" -> (
        match Json.to_float (get path what e "dur") with
        | Some _ -> ()
        | None -> failf "%s: %s is a Complete event without a numeric \"dur\"" path what)
      | ph -> failf "%s: %s has unknown phase %S" path what ph)
    events;
  Hashtbl.iter
    (fun tid d -> if d <> 0 then failf "%s: tid %d: %d span(s) opened but never closed" path tid d)
    depth;
  if dropped > 0 then
    Printf.eprintf
      "validate: warning: %s: the recorder dropped %d event(s) — the export is a truncated suffix \
       (%d span close(s) without their open)\n"
      path dropped !orphans;
  Printf.printf "validate: %s ok (%d event(s), spans balanced)\n" path (List.length events)

(* --- audit logs and flight dumps (JSONL) ------------------------------- *)

(* Strict, unlike the tolerant loaders: in CI a malformed line means the
   writer regressed, not that a crash truncated the log. *)
let check_audit path =
  match Obs.Audit.load ~strict:true path with
  | Error msg -> failf "%s" msg
  | Ok ([], _) -> failf "%s: empty audit log" path
  | Ok (records, _) -> Printf.printf "validate: %s ok (%d audit record(s))\n" path (List.length records)

let check_flight path =
  match Obs.Flight.load ~strict:true path with
  | Error msg -> failf "%s" msg
  | Ok (_, evs, _) -> Printf.printf "validate: %s ok (%d flight event(s))\n" path (List.length evs)

(* --- paired comparison (the timing gate) ------------------------------ *)

(* Each side is a JSONL file of run results in perfbench's shape, one run
   per line: {"correct", "failed", "metrics": {NAME: {"value", ...}}}.
   A metric is gated when it has a bound: the end-to-end metrics take
   [better] and [bound] from the BENCHMARK.json found in the current
   directory or above it, and the flight section's [answer_path_ms] takes
   the recorder's overhead bound.  The gate fails on a wrong or failed run,
   on sides of unequal length, on a gated metric missing from any run, and
   when a gated metric's median on the change side is worse than the
   parent's by more than its bound. *)

let recorder_overhead_bound = 0.02

(* (name, (higher is better, bound)) of every gated metric *)
let bounds () =
  let rec find dir =
    let path = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists path then path
    else if Filename.dirname dir = dir then failf "--compare: no BENCHMARK.json here or above"
    else find (Filename.dirname dir)
  in
  let path = find (Sys.getcwd ()) in
  let metric m =
    let what = "end_to_end entry" in
    match (want_str path what m "better", Json.to_float (get path what m "bound")) with
    | (("higher" | "lower") as better), Some bound ->
      (want_str path what m "name", (better = "higher", bound))
    | _ -> failf "%s: %s needs \"better\" higher or lower and a numeric \"bound\"" path what
  in
  match Json.to_list (get path "document" (parse_file path) "end_to_end") with
  | Some ms -> ("answer_path_ms", (false, recorder_overhead_bound)) :: List.map metric ms
  | None -> failf "%s: \"end_to_end\" is not an array" path

(* One (name, value) list per run; a wrong or failed run fails the read. *)
let load_runs path =
  let value (name, m) =
    match Option.bind (Json.member "value" m) Json.to_float with
    | Some v -> Ok (name, v)
    | None -> Error (Printf.sprintf "metric %S has no numeric \"value\"" name)
  in
  let decode j =
    match (Obs.Jsonl.bool_field "correct" j, Obs.Jsonl.int_field "failed" j, Json.member "metrics" j) with
    | Ok true, Ok 0, Some (Json.Obj fields) -> Obs.Jsonl.map_list value fields
    | Ok false, _, _ -> Error "a wrong answer"
    | _, Ok n, _ when n <> 0 -> Error (Printf.sprintf "%d failed operation(s)" n)
    | Error e, _, _ | _, Error e, _ -> Error e
    | _ -> Error "field \"metrics\": expected an object"
  in
  match Obs.Jsonl.read ~strict:true decode path with
  | Error msg -> failf "%s" msg
  | Ok ([], _) -> failf "%s: no runs" path
  | Ok (runs, _) -> runs

let check_compare parent_path change_path =
  let bounds = bounds () in
  let parent = load_runs parent_path and change = load_runs change_path in
  let n = List.length parent in
  if List.length change <> n then
    failf "--compare: %s has %d run(s), %s has %d: the runs do not pair" parent_path n change_path
      (List.length change);
  let gated =
    List.concat_map (List.map fst) (parent @ change)
    |> List.sort_uniq compare
    |> List.filter (fun name -> List.mem_assoc name bounds)
  in
  if gated = [] then failf "--compare: no gated metric in %s or %s" parent_path change_path;
  let median path runs name =
    let value i values =
      match List.assoc_opt name values with
      | Some v -> v
      | None -> failf "%s: run %d lacks metric %S" path (i + 1) name
    in
    let a = Array.of_list (List.sort compare (List.mapi value runs)) in
    (a.((n - 1) / 2) +. a.(n / 2)) /. 2.
  in
  let medians =
    List.map (fun name -> (name, median parent_path parent name, median change_path change name)) gated
  in
  let regressed =
    List.filter
      (fun (name, p, c) ->
        let higher, bound = List.assoc name bounds in
        let delta = (c -. p) /. p in
        let bad = (if higher then -.delta else delta) > bound in
        Printf.printf "%-20s parent %10.4g  change %10.4g  %+7.2f%%  (%s is better, bound %g%%)%s\n"
          name p c (100. *. delta)
          (if higher then "higher" else "lower")
          (100. *. bound)
          (if bad then "  REGRESSED" else "");
        bad)
      medians
  in
  if regressed <> [] then
    failf "--compare: %s regressed against %s over %d paired run(s): %s" change_path parent_path n
      (String.concat ", " (List.map (fun (name, _, _) -> name) regressed));
  Printf.printf "validate: compare ok: %d metric(s), %d paired run(s)\n" (List.length gated) n

(* --------------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go = function
    | [] -> ()
    | "--manifest" :: path :: rest ->
      check_manifest path;
      go rest
    | "--trace" :: path :: rest ->
      check_trace path;
      go rest
    | "--audit" :: path :: rest ->
      check_audit path;
      go rest
    | "--flight" :: path :: rest ->
      check_flight path;
      go rest
    | "--compare" :: parent_path :: change_path :: rest ->
      check_compare parent_path change_path;
      go rest
    | [ "--manifest" ] | [ "--trace" ] | [ "--audit" ] | [ "--flight" ] ->
      failf "missing file operand"
    | [ "--compare" ] | [ "--compare"; _ ] -> failf "--compare needs PARENT.jsonl and CHANGE.jsonl"
    | path :: rest ->
      check_bench path;
      go rest
  in
  if args = [] then
    failf
      "usage: validate [BENCH_*.json ...] [--manifest FILE] [--trace FILE] [--audit FILE] \
       [--flight FILE] [--compare PARENT.jsonl CHANGE.jsonl]";
  go args
