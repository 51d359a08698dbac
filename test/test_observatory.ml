(* Query-observatory test suite (lib/obs/{audit,quantile,slo,report}).

   Pins the audit record contract end to end: the JSON codec round-trips
   and its validator rejects version/field/type drift; the sink's
   one-line-plus-flush discipline makes [Audit.load] tolerant of a
   crash-truncated tail; the quantile estimator stays inside its
   documented 2x relative error bound against exact nearest-rank
   percentiles of synthetic distributions; the report renderer is
   byte-stable over a committed fixture log (the golden test — the same
   aggregation code [bin/omega_report] runs); and the engine emits exactly
   one schema-valid record per query through [Engine.close], for drained,
   rejected and domains-2 streams alike. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module R = Rpq_regex.Regex
module Engine = Core.Engine
module Options = Core.Options
module Audit = Obs.Audit
module Quantile = Obs.Quantile
module Slo = Obs.Slo
module Report = Obs.Report
module Metrics = Obs.Metrics
module Json = Obs.Json
open Instance_gen

(* --- audit: hash -------------------------------------------------------- *)

let hash_test () =
  (* FNV-1a 64-bit reference vectors — the hash must stay stable across
     builds or logs from different runs stop aggregating together *)
  Alcotest.(check string) "empty string" "cbf29ce484222325" (Audit.hash "");
  Alcotest.(check string) "single char" "af63dc4c8601ec8c" (Audit.hash "a");
  Alcotest.(check bool) "distinct inputs, distinct hashes" true
    (Audit.hash "(?X, ?Y) <- (?X, p, ?Y)" <> Audit.hash "(?X, ?Y) <- (?X, q, ?Y)");
  Alcotest.(check int) "16 hex digits" 16 (String.length (Audit.hash "anything"))

(* --- audit: codec round-trip and schema validation ----------------------- *)

let full_record =
  {
    Audit.ts_ns = 123456789;
    query_hash = Audit.hash "(?X, ?Y) <- (?X, p|q, ?Y)";
    query = "(?X, ?Y) <- (?X, p|q, ?Y)";
    query_class = "exact+decomposed";
    plan = "1:exact/M_R(3s,2t)/parts(2)/batched(100)";
    termination = "exhausted";
    reason = Some "answer-limit";
    answers = 42;
    wall_ns = 1_500_000;
    cpu_ns = 1_400_000;
    est_states = 3;
    est_product = 700;
    actual_tuples = 655;
    domains = 2;
    shards =
      [
        { Audit.s_index = 0; s_busy_ns = 900_000; s_answers = 30 };
        { Audit.s_index = 1; s_busy_ns = 450_000; s_answers = 12 };
      ];
    merge_wait_ns = 120_000;
    imbalance_pct = 133;
    flight = Some { Audit.f_path = "flight.jsonl"; f_events = 480; f_dropped = 3 };
    tenant = Some "acme";
    stats = [ ("pushes", 655); ("pops", 600); ("answers", 42) ];
    gc = [ ("minor_words", 50_000); ("major_words", 1_200) ];
  }

let roundtrip_test () =
  (* through the full pipeline: record -> JSON -> string -> parse -> record *)
  let s = Json.to_string (Audit.to_json full_record) in
  match Json.parse s with
  | Error msg -> Alcotest.failf "serialised record does not re-parse: %s" msg
  | Ok j -> (
    match Audit.of_json j with
    | Error msg -> Alcotest.failf "re-parsed record rejected: %s" msg
    | Ok r ->
      Alcotest.(check bool) "round-trips structurally" true (r = full_record);
      (* reason = None / flight = None must survive as JSON null, not be dropped *)
      let r0 =
        { full_record with Audit.reason = None; flight = None; shards = []; stats = []; gc = [] }
      in
      (match Audit.of_json (Audit.to_json r0) with
      | Ok r0' -> Alcotest.(check bool) "null reason / empty lists round-trip" true (r0' = r0)
      | Error msg -> Alcotest.failf "minimal record rejected: %s" msg))

let schema_rejection_test () =
  let j = Audit.to_json full_record in
  (match Audit.validate j with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid record rejected: %s" msg);
  let reject what j =
    match Audit.validate j with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  (match j with
  | Json.Obj fields ->
    reject "future schema version"
      (Json.Obj (List.map (function "v", _ -> ("v", Json.Int 99) | kv -> kv) fields));
    reject "missing termination field"
      (Json.Obj (List.filter (fun (k, _) -> k <> "termination") fields));
    reject "wall_ns as string"
      (Json.Obj
         (List.map (function "wall_ns", _ -> ("wall_ns", Json.String "fast") | kv -> kv) fields));
    reject "malformed shard"
      (Json.Obj
         (List.map
            (function "shards", _ -> ("shards", Json.List [ Json.Obj [ ("i", Json.Int 0) ] ]) | kv -> kv)
            fields));
    reject "malformed flight link"
      (Json.Obj
         (List.map
            (function "flight", _ -> ("flight", Json.Obj [ ("path", Json.Int 3) ]) | kv -> kv)
            fields));
    (* pre-flight v1 records stay loadable, reading flight as None *)
    (match
       Audit.of_json
         (Json.Obj
            (List.filter_map
               (function
                 | "v", _ -> Some ("v", Json.Int 1)
                 | "flight", _ -> None
                 | kv -> Some kv)
               fields))
     with
    | Ok r -> Alcotest.(check bool) "v1 record reads with flight = None" true (r.Audit.flight = None)
    | Error msg -> Alcotest.failf "v1 record rejected: %s" msg)
  | _ -> Alcotest.fail "to_json did not produce an object");
  reject "non-object record" (Json.List [])

(* --- audit: sink crash-safety and tolerant load -------------------------- *)

let temp_path name =
  let path = Filename.temp_file name ".jsonl" in
  Sys.remove path;
  path

let sink_load_test () =
  let path = temp_path "audit_sink" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let sink = Audit.open_sink path in
      Audit.write sink full_record;
      Audit.write sink { full_record with Audit.answers = 7 };
      Audit.close_sink sink;
      (* simulate a crash truncating the record being written: the tail is
         half a JSON object with no newline *)
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
      output_string oc "{\"v\":1,\"ts_ns\":99,\"query_ha";
      close_out oc;
      match Audit.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok (records, skipped) ->
        Alcotest.(check int) "both complete records survive" 2 (List.length records);
        Alcotest.(check int) "truncated tail counted, not fatal" 1 skipped;
        Alcotest.(check bool) "first record intact" true (List.hd records = full_record));
  match Audit.load "/nonexistent/audit.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of a missing file must be an Error"

let global_sink_test () =
  let path = temp_path "audit_global" in
  Fun.protect
    ~finally:(fun () ->
      Audit.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "disabled by default" false (Audit.enabled ());
      Audit.emit full_record;
      (* no sink: emit is a no-op *)
      Alcotest.(check bool) "no file created while disabled" false (Sys.file_exists path);
      Audit.enable path;
      Alcotest.(check bool) "enabled" true (Audit.enabled ());
      Audit.emit full_record;
      Audit.disable ();
      Alcotest.(check bool) "disabled again" false (Audit.enabled ());
      Audit.emit full_record;
      match Audit.load path with
      | Ok (records, 0) -> Alcotest.(check int) "only the enabled-window emit landed" 1 (List.length records)
      | Ok (_, skipped) -> Alcotest.failf "unexpected skipped lines: %d" skipped
      | Error msg -> Alcotest.failf "load failed: %s" msg)

(* --- quantile: error bound vs exact percentiles -------------------------- *)

(* exact nearest-rank percentile of a sorted list *)
let exact_quantile sorted p =
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  float_of_int (List.nth sorted (rank - 1))

let check_bound ~what values p =
  let sorted = List.sort compare values in
  let r = Metrics.create () in
  let h = Metrics.histogram r "q" in
  List.iter (Metrics.observe h) values;
  let est = Quantile.of_histogram h p in
  let exact = exact_quantile sorted p in
  (* the documented bound: the estimate lies in the exact value's log2
     bucket, so it is off by strictly less than a factor of 2 *)
  if exact > 0. then begin
    if not (est > exact /. 2. && est < exact *. 2.) then
      Alcotest.failf "%s p%.0f: estimate %.0f outside (%.0f, %.0f)" what (100. *. p) est
        (exact /. 2.) (exact *. 2.)
  end
  else if est <> 0. then Alcotest.failf "%s p%.0f: expected 0, got %.0f" what (100. *. p) est

let quantile_bound_test () =
  let ps = [ 0.5; 0.9; 0.99 ] in
  let uniform = List.init 1000 (fun i -> i + 1) in
  let constant = List.init 64 (fun _ -> 777) in
  let heavy_tail = List.init 500 (fun i -> if i < 450 then 100 + (i mod 7) else 1 lsl (10 + (i mod 8))) in
  let tiny = [ 3 ] in
  List.iter
    (fun p ->
      check_bound ~what:"uniform 1..1000" uniform p;
      check_bound ~what:"constant" constant p;
      check_bound ~what:"heavy tail" heavy_tail p;
      check_bound ~what:"single value" tiny p)
    ps;
  (* empty distribution: 0, not NaN *)
  let r = Metrics.create () in
  let h = Metrics.histogram r "empty" in
  Alcotest.(check (float 0.)) "empty histogram p99" 0. (Quantile.of_histogram h 0.99);
  (* out-of-range p is clamped, not an exception *)
  let h2 = Metrics.histogram r "one" in
  Metrics.observe h2 10;
  Alcotest.(check bool) "p>1 clamps" true (Quantile.of_histogram h2 1.5 > 0.);
  Alcotest.(check bool) "p<0 clamps" true (Quantile.of_histogram h2 (-1.) >= 0.)

let quantile_monotone_prop =
  QCheck2.Test.make ~name:"quantile is monotone in p" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 100_000))
    (fun values ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "q" in
      List.iter (Metrics.observe h) values;
      let qs = List.map (Quantile.of_histogram h) [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ] in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono qs)

(* --- slo ----------------------------------------------------------------- *)

let slo_test () =
  let t = Slo.create () in
  Alcotest.(check (list string)) "no classes yet" [] (Slo.classes t);
  Alcotest.(check bool) "summary of unseen class" true (Slo.summary t "exact" = None);
  for i = 1 to 100 do
    Slo.observe t ~cls:"exact" ~wall_ns:(i * 1000) ~cpu_ns:(i * 900)
  done;
  Slo.observe t ~cls:"approx" ~wall_ns:5_000_000 ~cpu_ns:4_000_000;
  Alcotest.(check (list string)) "classes sorted" [ "approx"; "exact" ] (Slo.classes t);
  (match Slo.summary t "exact" with
  | None -> Alcotest.fail "exact summary missing"
  | Some s ->
    Alcotest.(check int) "query count" 100 s.Slo.queries;
    Alcotest.(check int) "wall max exact" 100_000 s.Slo.wall_max;
    Alcotest.(check int) "cpu max exact" 90_000 s.Slo.cpu_max;
    let exact_p50 = 50_000. in
    Alcotest.(check bool) "wall p50 within 2x" true
      (s.Slo.wall_p50 > exact_p50 /. 2. && s.Slo.wall_p50 < exact_p50 *. 2.);
    Alcotest.(check bool) "percentiles ordered" true
      (s.Slo.wall_p50 <= s.Slo.wall_p90 && s.Slo.wall_p90 <= s.Slo.wall_p99));
  match Json.parse (Json.to_string (Slo.to_json t)) with
  | Error msg -> Alcotest.failf "slo JSON does not re-parse: %s" msg
  | Ok j -> (
    match Json.member "exact" j with
    | Some cls -> (
      match Json.member "queries" cls with
      | Some (Json.Int n) -> Alcotest.(check int) "queries in JSON" 100 n
      | _ -> Alcotest.fail "no queries field under the class")
    | None -> Alcotest.fail "class key missing from slo JSON")

(* --- report: golden output over the committed fixture log ----------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_records () =
  match Audit.load "fixtures/audit_fixture.jsonl" with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok (records, 0) -> records
  | Ok (_, skipped) -> Alcotest.failf "fixture has %d malformed line(s)" skipped

let report_golden_test () =
  let records = fixture_records () in
  Alcotest.(check int) "fixture record count" 6 (List.length records);
  let report = Report.build records in
  Alcotest.(check int) "total" 6 (Report.total report);
  let rendered = Format.asprintf "%a" Report.pp report in
  let golden = read_file "fixtures/report_golden.txt" in
  Alcotest.(check string) "text report matches the golden fixture" golden rendered

let report_json_test () =
  let report = Report.build (fixture_records ()) in
  match Json.parse (Json.to_string (Report.to_json report)) with
  | Error msg -> Alcotest.failf "report JSON does not re-parse: %s" msg
  | Ok j ->
    (match Json.member "queries" j with
    | Some (Json.Int n) -> Alcotest.(check int) "queries" 6 n
    | _ -> Alcotest.fail "no queries field");
    (match Json.member "admission" j with
    | Some adm -> (
      match (Json.member "vetted" adm, Json.member "underestimated" adm) with
      | Some (Json.Int v), Some (Json.Int u) ->
        Alcotest.(check int) "vetted (est_product > 0)" 5 v;
        Alcotest.(check int) "underestimated (actual > est)" 2 u
      | _ -> Alcotest.fail "admission summary incomplete")
    | None -> Alcotest.fail "no admission section");
    match Json.member "parallel" j with
    | Some par -> (
      match Json.member "sharded" par with
      | Some (Json.Int n) -> Alcotest.(check int) "one sharded query" 1 n
      | _ -> Alcotest.fail "no sharded count")
    | None -> Alcotest.fail "no parallel section"

(* clockless hosts: a sharded run with unmeasured busy times (imbalance 0,
   merge_wait 0) must render '-' / JSON null, never a bogus figure *)
let report_clockless_parallel_test () =
  let clockless =
    {
      full_record with
      Audit.imbalance_pct = 0;
      merge_wait_ns = 0;
      shards =
        [
          { Audit.s_index = 0; s_busy_ns = 0; s_answers = 30 };
          { Audit.s_index = 1; s_busy_ns = 0; s_answers = 12 };
        ];
    }
  in
  let report = Report.build [ clockless ] in
  let rendered = Format.asprintf "%a" Report.pp report in
  Alcotest.(check bool) "text reports unmeasured as '-'" true
    (let needle = "sharded=1 imbalance mean=- max=- merge_wait=-" in
     let n = String.length needle in
     let rec find i =
       i + n <= String.length rendered && (String.sub rendered i n = needle || find (i + 1))
     in
     find 0);
  (match Json.member "parallel" (Report.to_json report) with
  | Some par ->
    Alcotest.(check bool) "imbalance_mean_pct is null" true
      (Json.member "imbalance_mean_pct" par = Some Json.Null);
    Alcotest.(check bool) "merge_wait_total_ns is null" true
      (Json.member "merge_wait_total_ns" par = Some Json.Null);
    Alcotest.(check bool) "measured count is 0" true (Json.member "measured" par = Some (Json.Int 0))
  | None -> Alcotest.fail "no parallel section");
  (* and a measured record keeps its numbers *)
  let measured = Report.build [ full_record ] in
  match Json.member "parallel" (Report.to_json measured) with
  | Some par ->
    Alcotest.(check bool) "measured imbalance stays numeric" true
      (Json.member "imbalance_max_pct" par = Some (Json.Int 133))
  | None -> Alcotest.fail "no parallel section (measured)"

let report_compare_test () =
  let report = Report.build (fixture_records ()) in
  (* identical logs: the comparison must render and the JSON re-parse *)
  let rendered = Format.asprintf "%a" Report.pp_compare (report, report) in
  Alcotest.(check bool) "comparison renders" true (String.length rendered > 0);
  match Json.parse (Json.to_string (Report.compare_json report report)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "compare JSON does not re-parse: %s" msg

(* per-tenant rollup: server logs stamp records with a tenant; the report
   groups query work and sheds by it.  Tenant-less (pre-v3) logs must not
   grow a section — the golden fixture pins that above. *)
let report_tenant_rollup_test () =
  let q tenant cls wall =
    { full_record with Audit.tenant; query_class = cls; wall_ns = wall; shards = []; imbalance_pct = 0; merge_wait_ns = 0 }
  in
  let shed tenant =
    {
      (q tenant "server" 0) with
      Audit.termination = "shed";
      reason = Some "overload";
      answers = 0;
    }
  in
  let records =
    [
      q (Some "acme") "exact" 1_000;
      q (Some "acme") "exact" 3_000;
      q (Some "acme") "approx" 9_000;
      shed (Some "acme");
      shed (Some "acme");
      q (Some "zeta") "exact" 2_000;
      q None "exact" 500 (* pre-v3 record in the same log: counted globally only *);
      { (q (Some "server") "server" 0) with Audit.termination = "drain" };
    ]
  in
  let report = Report.build records in
  let rendered = Format.asprintf "%a" Report.pp report in
  let contains needle hay =
    let n = String.length needle in
    let rec find i = i + n <= String.length hay && (String.sub hay i n = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "per-tenant section renders" true (contains "per-tenant:" rendered);
  Alcotest.(check bool) "acme rollup line" true
    (contains "acme               queries=3    shed=2" rendered);
  Alcotest.(check bool) "zeta rollup line" true
    (contains "zeta               queries=1    shed=0" rendered);
  Alcotest.(check bool) "server bookkeeping rows carry no query work" true
    (contains "server             queries=0    shed=0" rendered);
  (match Json.member "tenants" (Report.to_json report) with
  | Some (Json.Obj tenants) -> (
    Alcotest.(check (list string)) "tenants sorted" [ "acme"; "server"; "zeta" ]
      (List.map fst tenants);
    match Json.member "acme" (Json.Obj tenants) with
    | Some acme ->
      Alcotest.(check bool) "acme queries" true (Json.member "queries" acme = Some (Json.Int 3));
      Alcotest.(check bool) "acme shed" true (Json.member "shed" acme = Some (Json.Int 2));
      (match Json.member "classes" acme with
      | Some cls -> (
        match Json.member "exact" cls with
        | Some exact ->
          Alcotest.(check bool) "acme exact class count" true
            (Json.member "queries" exact = Some (Json.Int 2))
        | None -> Alcotest.fail "acme exact class missing")
      | None -> Alcotest.fail "acme classes missing")
    | None -> Alcotest.fail "acme missing from tenants JSON")
  | _ -> Alcotest.fail "no tenants object in report JSON");
  (* tenant-less logs: no section, empty JSON object *)
  let plain = Report.build (fixture_records ()) in
  Alcotest.(check bool) "no per-tenant section for pre-v3 logs" false
    (contains "per-tenant:" (Format.asprintf "%a" Report.pp plain));
  match Json.member "tenants" (Report.to_json plain) with
  | Some (Json.Obj []) -> ()
  | _ -> Alcotest.fail "tenants should be an empty object for tenant-less logs"

(* --- engine integration: one schema-valid record per query ---------------- *)

let audit_instance =
  {
    n_base = 12;
    edges = List.init 40 (fun i -> (i mod 12, "p", (i * 7) mod 12));
    types = [ (0, 0); (3, 1) ];
    regex = R.star (R.lbl "p");
    mode = Q.Approx;
    subj = `Var;
    obj = `Fresh;
  }

(* run one query with the global audit sink pointed at a temp file and
   return the emitted records *)
let with_audit f =
  let path = temp_path "audit_engine" in
  Fun.protect
    ~finally:(fun () ->
      Audit.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Audit.enable path;
      f ();
      Audit.disable ();
      match Audit.load path with
      | Error msg -> Alcotest.failf "audit log unreadable: %s" msg
      | Ok (records, 0) -> records
      | Ok (_, skipped) -> Alcotest.failf "engine wrote %d malformed line(s)" skipped)

let engine_audit_test () =
  let g, k = build audit_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") audit_instance.regex (Q.Var "Y") in
  let records =
    with_audit (fun () ->
        let st = Engine.open_query ~graph:g ~ontology:k q in
        let outcome = Engine.drain ~limit:50 st in
        Alcotest.(check bool) "query produced answers" true (outcome.Engine.answers <> []))
  in
  match records with
  | [ r ] ->
    Alcotest.(check string) "class" "approx" r.Audit.query_class;
    Alcotest.(check string) "hash matches the canonical query text" (Audit.hash r.Audit.query)
      r.Audit.query_hash;
    Alcotest.(check bool) "plan is non-empty" true (r.Audit.plan <> "");
    Alcotest.(check bool) "stats carried" true (List.mem_assoc "pushes" r.Audit.stats);
    Alcotest.(check bool) "gc deltas carried" true (List.mem_assoc "minor_words" r.Audit.gc);
    Alcotest.(check int) "sequential run has no shards" 0 (List.length r.Audit.shards);
    Alcotest.(check bool) "record validates" true (Audit.validate (Audit.to_json r) = Ok ())
  | l -> Alcotest.failf "expected exactly one audit record, got %d" (List.length l)

let engine_audit_close_idempotent_test () =
  let g, k = build audit_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") audit_instance.regex (Q.Var "Y") in
  let records =
    with_audit (fun () ->
        let st = Engine.open_query ~graph:g ~ontology:k q in
        ignore (Engine.drain ~limit:5 st);
        (* drain already closed the stream; closing again must not emit a
           second record *)
        Engine.close st;
        Engine.close st)
  in
  Alcotest.(check int) "one record despite repeated close" 1 (List.length records)

let engine_audit_rejected_test () =
  let g, k = build audit_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") audit_instance.regex (Q.Var "Y") in
  let options = { Options.default with Options.max_states = Some 1 } in
  let records =
    with_audit (fun () ->
        let st = Engine.open_query ~graph:g ~ontology:k ~options q in
        Alcotest.(check bool) "stream yields nothing" true (Engine.next st = None))
  in
  match records with
  | [ r ] ->
    Alcotest.(check string) "termination" "rejected" r.Audit.termination;
    Alcotest.(check bool) "rejection reason present" true (r.Audit.reason <> None);
    Alcotest.(check string) "plan marks the rejection" "rejected" r.Audit.plan;
    Alcotest.(check int) "no answers" 0 r.Audit.answers
  | l -> Alcotest.failf "expected one rejected record, got %d" (List.length l)

let engine_audit_parallel_test () =
  let g, k = build audit_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") audit_instance.regex (Q.Var "Y") in
  let options = { Options.default with Options.domains = 2 } in
  Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
  let records =
    Fun.protect ~finally:Obs.Clock.uninstall (fun () ->
        with_audit (fun () ->
            let st = Engine.open_query ~graph:g ~ontology:k ~options q in
            ignore (Engine.drain st)))
  in
  match records with
  | [ r ] ->
    Alcotest.(check int) "domains recorded" 2 r.Audit.domains;
    Alcotest.(check int) "no shards: one domain per query" 0 (List.length r.Audit.shards);
    Alcotest.(check int) "no merge wait" 0 r.Audit.merge_wait_ns;
    Alcotest.(check int) "no imbalance" 0 r.Audit.imbalance_pct
  | l -> Alcotest.failf "expected one parallel record, got %d" (List.length l)

(* both sinks active: the audit record cross-links the flight dump *)
let engine_audit_flight_link_test () =
  let g, k = build audit_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") audit_instance.regex (Q.Var "Y") in
  let options = { Options.default with Options.domains = 2 } in
  let dump = temp_path "flight_dump" in
  Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
  Obs.Flight.set_dump_target (Some dump);
  Obs.Flight.enable ();
  let records =
    Fun.protect
      ~finally:(fun () ->
        Obs.Flight.disable ();
        Obs.Flight.set_dump_target None;
        Obs.Flight.clear ();
        Obs.Clock.uninstall ())
      (fun () ->
        with_audit (fun () ->
            let st = Engine.open_query ~graph:g ~ontology:k ~options q in
            ignore (Engine.drain st)))
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dump then Sys.remove dump) @@ fun () ->
  match records with
  | [ r ] -> (
    match r.Audit.flight with
    | None -> Alcotest.fail "audit record missing the flight link"
    | Some f ->
      Alcotest.(check string) "flight path recorded" dump f.Audit.f_path;
      Alcotest.(check bool) "events recorded" true (f.Audit.f_events > 0);
      Alcotest.(check bool) "record validates under v2" true (Audit.validate (Audit.to_json r) = Ok ());
      (* the dump itself replays clean *)
      (match Obs.Replay.load f.Audit.f_path with
      | Error msg -> Alcotest.failf "dump unreadable: %s" msg
      | Ok rep ->
        Alcotest.(check bool) "replay finds no violation" true (Obs.Replay.ok rep);
        Alcotest.(check int) "replay event count matches the link" f.Audit.f_events
          (List.length rep.Obs.Replay.events)))
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

let () =
  Alcotest.run "observatory"
    [
      ( "audit",
        [
          Alcotest.test_case "FNV-1a hash vectors" `Quick hash_test;
          Alcotest.test_case "JSON round-trip" `Quick roundtrip_test;
          Alcotest.test_case "schema validation rejects drift" `Quick schema_rejection_test;
          Alcotest.test_case "sink write / tolerant load" `Quick sink_load_test;
          Alcotest.test_case "global sink enable/disable" `Quick global_sink_test;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "2x error bound vs exact percentiles" `Quick quantile_bound_test;
          QCheck_alcotest.to_alcotest quantile_monotone_prop;
        ] );
      ( "slo", [ Alcotest.test_case "per-class summaries" `Quick slo_test ] );
      ( "report",
        [
          Alcotest.test_case "golden text output" `Quick report_golden_test;
          Alcotest.test_case "JSON aggregates" `Quick report_json_test;
          Alcotest.test_case "clockless parallel figures render unmeasured" `Quick
            report_clockless_parallel_test;
          Alcotest.test_case "comparison view" `Quick report_compare_test;
          Alcotest.test_case "per-tenant rollup" `Quick report_tenant_rollup_test;
        ] );
      ( "engine",
        [
          Alcotest.test_case "one record per drained query" `Quick engine_audit_test;
          Alcotest.test_case "close is emit-once" `Quick engine_audit_close_idempotent_test;
          Alcotest.test_case "rejected queries audited" `Quick engine_audit_rejected_test;
          Alcotest.test_case "parallel shard breakdown" `Quick engine_audit_parallel_test;
          Alcotest.test_case "flight dump cross-linked" `Quick engine_audit_flight_link_test;
        ] );
    ]
