(* Validator for the observability artefacts, run by CI:

     validate BENCH_smoke.json ...       # schema-check benchmark exports
     validate --manifest FILE            # a live stream's metric names vs the pinned manifest
     validate --trace FILE               # Chrome trace structure + span nesting
     validate --audit FILE               # audit-log (JSONL) schema check
     validate --flight FILE              # flight-dump (JSONL) strict schema check
     validate --compare OLD NEW          # per-section perf regression gate
     validate --threshold PCT            # --compare slowdown tolerance (default 25)

   Exits non-zero with a message on the first violation, so a schema drift,
   a silently renamed metric, an unbalanced span pair or a benchmark
   section that got more than [threshold]% slower fails the build.  A trace
   whose rings overflowed (top-level "dropped" > 0) is reported as a
   warning: the file is valid but truncated. *)

module Json = Obs.Json

let failf fmt =
  Printf.ksprintf
    (fun s ->
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

(* --- BENCH_par.json (speedup-vs-domains curve) ----------------------- *)

(* Structural gate for the parallel-evaluation section: every row is a
   valid schema-2 result that additionally carries [domains] and
   [speedup]; each (query, mode) group has a domains=1 baseline, its
   stored speedups recompute from the stored means, and — the determinism
   contract — the answer count and termination of every row match the
   group's baseline exactly. *)
let check_par path =
  let j = parse_file path in
  let version = want_int path "document" j "schema_version" in
  if version <> 2 then failf "%s: unsupported schema_version %d (expected 2)" path version;
  let section = want_str path "document" j "section" in
  if section <> "par" then failf "%s: --par expects section \"par\", got %S" path section;
  if want_int path "document" j "runs" < 1 then failf "%s: runs < 1" path;
  let host_cores =
    match Json.member "host_cores" j with
    | Some v -> (
      match Json.to_int v with
      | Some c when c >= 1 -> c
      | Some c -> failf "%s: host_cores %d is not >= 1" path c
      | None -> failf "%s: \"host_cores\" is not an integer" path)
    | None -> failf "%s: missing \"host_cores\" (needed to interpret the curve)" path
  in
  match Json.to_list (get path "document" j "results") with
  | None -> failf "%s: \"results\" is not an array" path
  | Some results ->
    if results = [] then failf "%s: empty results" path;
    let rows =
      List.mapi
        (fun i r ->
          let what = Printf.sprintf "results[%d]" i in
          check_result path i r;
          let domains = want_int path what r "domains" in
          if domains < 1 then failf "%s: %s has domains %d < 1" path what domains;
          let speedup =
            match Json.to_float (get path what r "speedup") with
            | Some s when s > 0. -> s
            | Some s -> failf "%s: %s has non-positive speedup %g" path what s
            | None -> failf "%s: %s field \"speedup\" is not a number" path what
          in
          ( (want_str path what r "query", want_str path what r "mode"),
            (what, domains, want_int path what r "mean_ns", want_int path what r "answers",
             want_str path what r "termination", speedup) ))
        results
    in
    let keys = List.sort_uniq compare (List.map fst rows) in
    List.iter
      (fun key ->
        let group = List.filter_map (fun (k, v) -> if k = key then Some v else None) rows in
        let q, m = key in
        let base =
          match List.find_opt (fun (_, d, _, _, _, _) -> d = 1) group with
          | Some b -> b
          | None -> failf "%s: %s/%s has no domains=1 baseline row" path q m
        in
        let _, _, base_mean, base_answers, base_term, _ = base in
        List.iter
          (fun (what, _, mean_ns, answers, term, speedup) ->
            if answers <> base_answers then
              failf "%s: %s: answers %d differ from the domains=1 baseline's %d — the \
                     deterministic-merge contract is broken" path what answers base_answers;
            if term <> base_term then
              failf "%s: %s: termination %S differs from the baseline's %S" path what term
                base_term;
            if mean_ns > 0 && base_mean > 0 then begin
              let expect = float_of_int base_mean /. float_of_int mean_ns in
              if abs_float (speedup -. expect) > 0.02 *. expect then
                failf "%s: %s: stored speedup %.3f does not recompute from the means (%.3f)"
                  path what speedup expect
            end)
          group)
      keys;
    (* The speedup curve itself is only meaningful when the measuring host
       could actually run shards in parallel.  On a 1-core host the curve
       encodes pure pool/merge overhead — report it, don't gate on it. *)
    let multi = List.filter (fun (_, (_, d, _, _, _, _)) -> d > 1) rows in
    (if host_cores < 2 then
       Printf.eprintf
         "validate: warning: %s: measured on a %d-core host — the multi-domain rows encode \
          pool/merge overhead, not speedup; curve not gated\n"
         path host_cores
     else
       match multi with
       | [] -> ()
       | _ ->
         let best =
           List.fold_left (fun acc (_, (_, _, _, _, _, s)) -> max acc s) 0. multi
         in
         if best < 0.8 then
           failf
             "%s: best multi-domain speedup %.3f < 0.8 on a %d-core host — parallel evaluation \
              made everything slower"
             path best host_cores);
    Printf.printf "validate: %s ok (%d result(s), %d query group(s))\n" path (List.length rows)
      (List.length keys)

(* --- metric-name manifest ------------------------------------------- *)

(* The live metric surface: the registry of a real stream that reaches
   every layer that registers a metric — two joined conjuncts (the ranked
   join), APPROX and RELAX (the per-operation histograms), two domains (the
   parallel merge) and provenance on. *)
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

(* --- benchmark comparison (perf regression gate) --------------------- *)

(* Rows are matched by (dataset, scale, query, mode); the gate is on the
   per-section sum of mean_ns over the matched rows, so a single noisy
   query does not fail the build but a systematic slowdown does.  Rows
   present on only one side are reported (the section changed shape) but
   do not fail the comparison. *)
let check_compare ~threshold old_path new_path =
  let load path =
    let j = parse_file path in
    let section = want_str path "document" j "section" in
    match Json.to_list (get path "document" j "results") with
    | None -> failf "%s: \"results\" is not an array" path
    | Some results ->
      ( section,
        List.mapi
          (fun i r ->
            let what = Printf.sprintf "results[%d]" i in
            ( ( want_str path what r "dataset",
                want_str path what r "scale",
                want_str path what r "query",
                want_str path what r "mode" ),
              want_int path what r "mean_ns" ))
          results )
  in
  let old_section, old_rows = load old_path in
  let new_section, new_rows = load new_path in
  if old_section <> new_section then
    failf "--compare: section mismatch: %s is %S, %s is %S" old_path old_section new_path
      new_section;
  let key_str (d, s, q, m) = Printf.sprintf "%s/%s/%s/%s" d s q m in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k new_rows) then
        Printf.eprintf "validate: warning: --compare: %s disappeared from %s\n" (key_str k)
          new_path)
    old_rows;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k old_rows) then
        Printf.eprintf "validate: warning: --compare: %s is new in %s (not gated)\n" (key_str k)
          new_path)
    new_rows;
  let paired =
    List.filter_map
      (fun (k, o) -> Option.map (fun n -> (k, o, n)) (List.assoc_opt k new_rows))
      old_rows
  in
  if paired = [] then failf "--compare: no common rows between %s and %s" old_path new_path;
  let old_sum = List.fold_left (fun acc (_, o, _) -> acc + o) 0 paired in
  let new_sum = List.fold_left (fun acc (_, _, n) -> acc + n) 0 paired in
  let pct =
    if old_sum = 0 then 0. else 100. *. (float_of_int new_sum -. float_of_int old_sum) /. float_of_int old_sum
  in
  List.iter
    (fun (k, o, n) ->
      if o > 0 && float_of_int n > float_of_int o *. (1. +. (float_of_int threshold /. 100.)) then
        Printf.eprintf "validate: note: --compare: %s: %d ns -> %d ns (%+.1f%%)\n" (key_str k) o n
          (100. *. (float_of_int n -. float_of_int o) /. float_of_int o))
    paired;
  if float_of_int new_sum > float_of_int old_sum *. (1. +. (float_of_int threshold /. 100.)) then
    failf
      "--compare: section %S regressed: total mean_ns %d -> %d (%+.1f%%, threshold +%d%%) over %d \
       matched row(s)"
      old_section old_sum new_sum pct threshold (List.length paired);
  Printf.printf "validate: compare ok: section %S total mean_ns %d -> %d (%+.1f%%) over %d row(s)\n"
    old_section old_sum new_sum pct (List.length paired)

(* --------------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let threshold = ref 25 in
  let rec go = function
    | [] -> ()
    | "--manifest" :: path :: rest ->
      check_manifest path;
      go rest
    | "--trace" :: path :: rest ->
      check_trace path;
      go rest
    | "--par" :: path :: rest ->
      check_par path;
      go rest
    | "--audit" :: path :: rest ->
      check_audit path;
      go rest
    | "--flight" :: path :: rest ->
      check_flight path;
      go rest
    | "--threshold" :: pct :: rest ->
      (match int_of_string_opt pct with
      | Some n when n >= 0 -> threshold := n
      | _ -> failf "--threshold expects a non-negative integer percentage, got %S" pct);
      go rest
    | "--compare" :: old_path :: new_path :: rest ->
      check_compare ~threshold:!threshold old_path new_path;
      go rest
    | [ "--manifest" ] | [ "--trace" ] | [ "--par" ] | [ "--audit" ] | [ "--flight" ]
    | [ "--threshold" ] ->
      failf "missing file operand"
    | [ "--compare" ] | [ "--compare"; _ ] -> failf "--compare needs OLD.json and NEW.json"
    | path :: rest ->
      check_bench path;
      go rest
  in
  if args = [] then
    failf
      "usage: validate [BENCH_*.json ...] [--manifest FILE] [--trace FILE] [--par FILE] \
       [--audit FILE] [--flight FILE] [--threshold PCT] [--compare OLD.json NEW.json]";
  go args
