(* Observability test suite.

   Pins the algebra the metrics pipeline relies on ([Exec_stats.merge_into]
   associativity/commutativity with [peak_queue] as max, [reset], [copy]
   independence), the histogram bucket boundaries ([Metrics.bucket_index] /
   [bucket_bounds]), the registry merge semantics, and two engine-level
   contracts: trace span nesting stays well-formed under injected faults and
   deterministic deadlines, and polling [Engine.stream_stats] mid-stream
   does not perturb the evaluation (the satellite-6 regression). *)

module Graph = Graphstore.Graph
module Q = Core.Query
module R = Rpq_regex.Regex
module Engine = Core.Engine
module Governor = Core.Governor
module Failpoints = Core.Failpoints
module Options = Core.Options
module Stats = Core.Exec_stats
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Flight = Obs.Flight
module Json = Obs.Json
open Instance_gen

(* --- Exec_stats algebra ------------------------------------------------ *)

let set_fields (s : Stats.t) = function
  | [ a; b; c; d; e; f; g; h; i; j; k; m; n; o ] ->
    s.Stats.pushes <- a;
    s.Stats.pops <- b;
    s.Stats.succ_calls <- c;
    s.Stats.edges_scanned <- d;
    s.Stats.adjacency_bytes <- e;
    s.Stats.scan_ns <- f;
    s.Stats.batches <- g;
    s.Stats.seeds <- h;
    s.Stats.answers <- i;
    s.Stats.peak_queue <- j;
    s.Stats.restarts <- k;
    s.Stats.pruned <- m;
    s.Stats.drop_visited <- n;
    s.Stats.drop_dup <- o
  | _ -> assert false

let gen_stats =
  QCheck2.Gen.(
    map
      (fun fields ->
        let s = Stats.create () in
        set_fields s fields;
        s)
      (list_repeat 14 (int_bound 10_000)))

let assoc s = Stats.to_assoc s

let merge_assoc_prop =
  QCheck2.Test.make ~name:"merge_into is associative and commutative" ~count:200
    QCheck2.Gen.(triple gen_stats gen_stats gen_stats)
    (fun (a, b, c) ->
      (* ((a ⊕ b) ⊕ c) = (a ⊕ (b ⊕ c)) over disjoint accumulators *)
      let ab = Stats.copy a in
      Stats.merge_into ab b;
      let abc_l = Stats.copy ab in
      Stats.merge_into abc_l c;
      let bc = Stats.copy b in
      Stats.merge_into bc c;
      let abc_r = Stats.copy a in
      Stats.merge_into abc_r bc;
      let ba = Stats.copy b in
      Stats.merge_into ba a;
      assoc abc_l = assoc abc_r && assoc ab = assoc ba)

let peak_queue_max_test () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.peak_queue <- 5;
  a.Stats.pushes <- 10;
  b.Stats.peak_queue <- 3;
  b.Stats.pushes <- 7;
  Stats.merge_into a b;
  Alcotest.(check int) "peak_queue takes the max, not the sum" 5 a.Stats.peak_queue;
  Alcotest.(check int) "pushes add" 17 a.Stats.pushes;
  (* and the max is symmetric: a smaller accumulator adopts the larger peak *)
  let c = Stats.create () in
  c.Stats.peak_queue <- 2;
  Stats.merge_into c a;
  Alcotest.(check int) "max adopted when accumulator is smaller" 5 c.Stats.peak_queue

let reset_test () =
  let s = Stats.create () in
  set_fields s [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14 ];
  Stats.reset s;
  List.iter (fun (k, v) -> Alcotest.(check int) (k ^ " reset to 0") 0 v) (assoc s)

let copy_independent_test () =
  let s = Stats.create () in
  s.Stats.pushes <- 4;
  let snap = Stats.copy s in
  s.Stats.pushes <- 99;
  Alcotest.(check int) "copy is a snapshot" 4 snap.Stats.pushes

let field_names_test () =
  Alcotest.(check int) "25 scalar counters" 25 (List.length Stats.field_names);
  let s = Stats.create () in
  Alcotest.(check (list string)) "to_assoc follows field_names order" Stats.field_names
    (List.map fst (assoc s))

let scan_ns_na_test () =
  Obs.Clock.uninstall ();
  let s = Stats.create () in
  let rendered = Format.asprintf "%a" Stats.pp s in
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "scan-ns flagged n/a without a clock" true (contains "scan-ns=n/a" rendered);
  Obs.Clock.install (fun () -> 42);
  Alcotest.(check bool) "installed flag set" true (Obs.Clock.installed ());
  Alcotest.(check int) "installed clock read" 42 (!Obs.Clock.now_ns ());
  let with_clock = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "measured 0 printed as 0 once a clock exists" false
    (contains "scan-ns=n/a" with_clock);
  Obs.Clock.uninstall ();
  Alcotest.(check bool) "uninstall clears the flag" false (Obs.Clock.installed ());
  Alcotest.(check int) "zero clock restored" 0 (!Obs.Clock.now_ns ())

(* --- histogram bucket boundaries --------------------------------------- *)

let bucket_boundary_test () =
  Alcotest.(check int) "0 lands in bucket 0" 0 (Metrics.bucket_index 0);
  Alcotest.(check int) "negatives land in bucket 0" 0 (Metrics.bucket_index (-17));
  Alcotest.(check int) "1 lands in bucket 1" 1 (Metrics.bucket_index 1);
  Alcotest.(check (pair int int)) "bucket 0 bounds" (min_int, 0) (Metrics.bucket_bounds 0);
  for i = 1 to 30 do
    let lo = 1 lsl (i - 1) and hi = (1 lsl i) - 1 in
    Alcotest.(check int) (Printf.sprintf "lo 2^%d lands in bucket %d" (i - 1) i) i
      (Metrics.bucket_index lo);
    Alcotest.(check int) (Printf.sprintf "hi 2^%d-1 lands in bucket %d" i i) i
      (Metrics.bucket_index hi);
    Alcotest.(check (pair int int)) (Printf.sprintf "bucket %d bounds" i) (lo, hi)
      (Metrics.bucket_bounds i)
  done

let bucket_membership_prop =
  QCheck2.Test.make ~name:"bucket_bounds contains every observed value" ~count:500
    QCheck2.Gen.(int_range (-1000) 1_000_000_000)
    (fun v ->
      let i = Metrics.bucket_index v in
      let lo, hi = Metrics.bucket_bounds i in
      lo <= v && v <= hi)

let histogram_observe_test () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 1; 2; 3; 100; 0 ];
  Alcotest.(check int) "count" 5 (Metrics.h_count h);
  Alcotest.(check int) "sum" 106 (Metrics.h_sum h);
  Alcotest.(check int) "max" 100 (Metrics.h_max h);
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Metrics.buckets h) in
  Alcotest.(check int) "bucket counts total the observations" 5 total

let registry_merge_test () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter a "c");
  Metrics.incr ~by:4 (Metrics.counter b "c");
  let hb = Metrics.histogram b "h" in
  List.iter (Metrics.observe hb) [ 1; 2; 3; 100 ];
  Metrics.merge_into a b;
  Alcotest.(check int) "counters add" 7 (Metrics.value (Metrics.counter a "c"));
  let ha = Metrics.histogram a "h" in
  Alcotest.(check int) "absent histogram created on merge" 4 (Metrics.h_count ha);
  Alcotest.(check int) "merged sum" 106 (Metrics.h_sum ha);
  Alcotest.(check int) "merged max" 100 (Metrics.h_max ha);
  Alcotest.(check (list string)) "names sorted" [ "c"; "h" ] (Metrics.names a);
  (* kind clash: "c" is a counter in [a], a histogram in [clash] *)
  let clash = Metrics.create () in
  ignore (Metrics.histogram clash "c");
  (match Metrics.merge_into a clash with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merging a histogram into a counter must raise");
  match Metrics.histogram a "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter name as a histogram must raise"

(* --- JSON float writer (satellite: round-trip safety) ------------------- *)

let float_nonfinite_test () =
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite floats encode as null" "null"
        (Json.to_string (Json.Float f)))
    [ infinity; neg_infinity; nan ];
  (* a document containing them stays valid JSON *)
  match Json.parse (Json.to_string (Json.Obj [ ("x", Json.Float nan) ])) with
  | Ok (Json.Obj [ ("x", Json.Null) ]) -> ()
  | Ok _ -> Alcotest.fail "expected {\"x\":null}"
  | Error msg -> Alcotest.failf "does not re-parse: %s" msg

let float_roundtrip f =
  match Json.parse (Json.to_string (Json.Float f)) with
  | Error _ -> false
  | Ok j -> ( match Json.to_float j with Some g -> f = g | None -> false)

let float_roundtrip_cases_test () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h survives encode/parse" f) true (float_roundtrip f))
    [
      0.1;
      0.2;
      0.3;
      1.5;
      -2.75;
      Float.pi;
      1e15 +. 1. (* just past the integral shortcut: needs full precision *);
      1e-300;
      4.9e-324 (* smallest subnormal *);
      1.7976931348623157e308 (* max finite *);
      123456789.123456789;
    ]

let float_roundtrip_prop =
  QCheck2.Test.make ~name:"finite floats survive encode/parse exactly" ~count:1000
    QCheck2.Gen.float
    (fun f -> (not (Float.is_finite f)) || float_roundtrip f)

(* --- profile (wasted-work report) ---------------------------------------- *)

module Profile = Obs.Profile

let profile_roundtrip_test () =
  let r = Metrics.create () in
  let pop = Metrics.histogram r "pop_distance" in
  List.iter (Metrics.observe pop) [ 0; 1; 1; 2; 3; 5; 9 ];
  let ans = Metrics.histogram r "answer_distance" in
  List.iter (Metrics.observe ans) [ 0; 2; 5 ];
  let ins = Metrics.histogram r "ops_insert" in
  List.iter (Metrics.observe ins) [ 1; 1; 2 ];
  Metrics.incr ~by:20 (Metrics.counter r "pushes");
  Metrics.incr ~by:7 (Metrics.counter r "pops");
  Metrics.incr ~by:3 (Metrics.counter r "answers");
  Metrics.incr ~by:2 (Metrics.counter r "drop_visited");
  Metrics.incr ~by:1 (Metrics.counter r "drop_dup");
  Metrics.incr ~by:4 (Metrics.counter r "pruned");
  let p = Profile.of_metrics r in
  Alcotest.(check int) "queue_left = pushes - pops" 13 p.Profile.queue_left;
  Alcotest.(check int) "pops counter" 7 p.Profile.pops;
  Alcotest.(check int) "discards attributed" 2 p.Profile.drop_visited;
  let popped_total =
    List.fold_left (fun acc (b : Profile.bucket_row) -> acc + b.Profile.popped) 0 p.Profile.buckets
  in
  let answer_total =
    List.fold_left (fun acc (b : Profile.bucket_row) -> acc + b.Profile.answers) 0 p.Profile.buckets
  in
  Alcotest.(check int) "bucket pops total the observations" 7 popped_total;
  Alcotest.(check int) "bucket answers total the observations" 3 answer_total;
  let ins_stat = List.find (fun (o : Profile.op_stat) -> o.Profile.op = "ins") p.Profile.ops in
  Alcotest.(check int) "ins op count" 3 ins_stat.Profile.op_count;
  Alcotest.(check int) "ins op cost" 4 ins_stat.Profile.op_cost;
  Alcotest.(check int) "all five ops reported (zero rows included)" 5 (List.length p.Profile.ops);
  Alcotest.(check bool) "text rendering non-empty" true
    (String.length (Format.asprintf "%a" Profile.pp p) > 0);
  match Json.parse (Json.to_string (Profile.to_json p)) with
  | Error msg -> Alcotest.failf "profile JSON does not re-parse: %s" msg
  | Ok j -> (
    match Profile.of_json j with
    | None -> Alcotest.fail "of_json rejected to_json output"
    | Some p' -> Alcotest.(check bool) "of_json inverts to_json" true (p = p'))

let profile_empty_test () =
  (* an untouched registry yields a well-formed all-zero profile *)
  let p = Profile.of_metrics (Metrics.create ()) in
  Alcotest.(check int) "no buckets" 0 (List.length p.Profile.buckets);
  Alcotest.(check int) "zero queue_left" 0 p.Profile.queue_left;
  match Profile.of_json (Profile.to_json p) with
  | Some p' -> Alcotest.(check bool) "empty profile round-trips" true (p = p')
  | None -> Alcotest.fail "empty profile did not round-trip"

(* --- tracer: spans on the flight recorder, the Chrome export ----------- *)

let with_recorder ?capacity f =
  Flight.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      Flight.clear ())
    f

let spans () = List.filter (fun (e : Flight.event) -> Flight.is_span e.Flight.kind) (Flight.events ())

(* Begin/End nest per domain (each domain is its own timeline row). *)
let span_depth_ok events =
  let depth = Hashtbl.create 4 in
  List.for_all
    (fun (e : Flight.event) ->
      let d = Option.value ~default:0 (Hashtbl.find_opt depth e.Flight.domain) in
      match e.Flight.kind with
      | Flight.Span { ph = Flight.Begin; _ } ->
        Hashtbl.replace depth e.Flight.domain (d + 1);
        true
      | Flight.Span { ph = Flight.End; _ } ->
        Hashtbl.replace depth e.Flight.domain (d - 1);
        d > 0
      | _ -> true)
    events
  && Hashtbl.fold (fun _ d ok -> ok && d = 0) depth true

let trace_disabled_test () =
  Flight.enable ~capacity:16 ();
  Flight.disable ();
  (* fresh (empty) rings, recorder off: nothing may be recorded *)
  Alcotest.(check int) "with_span is transparent when disabled" 7
    (Flight.with_span "off" (fun () -> 7));
  Flight.instant "off";
  Flight.complete ~start_ns:0 "off";
  Flight.set_thread_name "off";
  Alcotest.(check int) "no events recorded while disabled" 0 (List.length (Flight.events ()))

let trace_exception_test () =
  with_recorder ~capacity:64 (fun () ->
      (try Flight.with_span "outer" (fun () -> Flight.with_span "boom" (fun () -> failwith "x"))
       with Failure _ -> ());
      let events = Flight.events () in
      Alcotest.(check int) "two B + two E" 4 (List.length events);
      Alcotest.(check bool) "spans closed despite the raise" true (span_depth_ok events))

let trace_events doc =
  match Option.bind (Json.member "traceEvents" doc) Json.to_list with
  | Some l -> l
  | None -> Alcotest.fail "no traceEvents array"

let trace_json_test () =
  with_recorder ~capacity:64 (fun () ->
      Obs.Clock.install (fun () -> 1_000_000_000 + (List.length (Flight.events ()) * 1000));
      Fun.protect ~finally:Obs.Clock.uninstall (fun () ->
          Flight.with_span ~cat:"t" ~args:[ ("k", Flight.Num 3) ] "span" (fun () -> Flight.instant "tick");
          (* flow events share the rings but stay out of the timeline *)
          Flight.record ~flow:0 Flight.Stop;
          match Json.parse (Json.to_string (Trace.to_json ())) with
          | Error msg -> Alcotest.failf "trace JSON does not re-parse: %s" msg
          | Ok j ->
            let l = trace_events j in
            Alcotest.(check int) "B + i + E exported" 3 (List.length l);
            List.iter
              (fun e ->
                match Json.to_float (Option.get (Json.member "ts" e)) with
                | Some ts -> Alcotest.(check bool) "ts rebased to non-negative" true (ts >= 0.)
                | None -> Alcotest.fail "ts is not a number")
              l))

let trace_dropped_test () =
  with_recorder ~capacity:16 (fun () ->
      for _ = 1 to 40 do
        Flight.instant "tick"
      done;
      Alcotest.(check int) "ring truncation counted" 24 (snd (Flight.stats ()));
      let doc = Trace.to_json ~extra:[ ("profile", Json.Obj [ ("pops", Json.Int 0) ]) ] () in
      (match Json.member "dropped" doc with
      | Some (Json.Int d) -> Alcotest.(check int) "dropped surfaced in the export" 24 d
      | _ -> Alcotest.fail "no top-level dropped field in trace export");
      match Json.member "profile" doc with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "extra fields not carried through to_json")

(* A span whose open was overwritten by the ring: the export ends with an
   orphan close.  Without a clock every timestamp is 0, so the export
   is byte-stable; bench/dune runs [validate --trace] on the committed copy
   and must warn about the truncation, not fail. *)
let trace_truncated_test () =
  with_recorder ~capacity:16 (fun () ->
      Flight.with_span "outer" (fun () ->
          for _ = 1 to 20 do
            Flight.instant "tick"
          done);
      let doc = Trace.to_json () in
      let evs = trace_events doc in
      Alcotest.(check int) "the ring kept its capacity" 16 (List.length evs);
      Alcotest.(check (list string)) "15 ticks, then the close of the overwritten open"
        (List.init 15 (fun _ -> "i") @ [ "E" ])
        (List.map (fun e -> Option.get (Option.bind (Json.member "ph" e) Json.to_str)) evs);
      let fixture = In_channel.with_open_bin "fixtures/trace_truncated.json" In_channel.input_all in
      Alcotest.(check string) "the committed repro is this export" fixture (Json.to_string doc ^ "\n"))

(* One recording, exported both ways: the Chrome timeline and the flight
   dump carry the same spans (phase, name, category, row). *)
let trace_both_exports_test () =
  let g = Graph.create () in
  let n = Array.init 6 (fun i -> Graph.add_node g (Printf.sprintf "n%d" i)) in
  List.iter
    (fun (x, y) -> Graph.add_edge_s g n.(x) "p" n.(y))
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
  Graph.freeze g;
  let k = Ontology.create (Graph.interner g) in
  let options = { Options.default with Options.domains = 2; max_answers = Some 5 } in
  with_recorder ~capacity:4096 (fun () ->
      (match
         Engine.run_string ~graph:g ~ontology:k ~options ~limit:max_int
           "(?X, ?Y) <- APPROX (?X, p.p, ?Y), (?Y, p, ?Z)"
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      let path = Filename.temp_file "omega-trace-both" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ignore (Flight.dump path);
          let from_dump =
            match Flight.load ~strict:true path with
            | Error msg -> Alcotest.fail msg
            | Ok (_, evs, _) ->
              List.filter_map
                (fun (e : Flight.event) ->
                  match e.Flight.kind with
                  | Flight.Span { ph; name; cat; _ } ->
                    Some (Flight.phase_letter ph, name, (if cat = "" then "omega" else cat), e.Flight.domain + 1)
                  | _ -> None)
                evs
          in
          let from_trace =
            List.filter_map
              (fun e ->
                let str k = Option.get (Option.bind (Json.member k e) Json.to_str) in
                if str "name" = "governor.trip" then None
                else Some (str "ph", str "name", str "cat", Option.get (Option.bind (Json.member "tid" e) Json.to_int)))
              (trace_events (Trace.to_json ()))
          in
          Alcotest.(check bool) "spans were recorded (build, seed, join, shard rows)" true
            (List.length from_dump > 10);
          Alcotest.(check (list (pair (pair string string) (pair string int))))
            "same spans, same order"
            (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) from_dump)
            (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) from_trace)))

(* Randomized engine runs under injected faults and a deterministic counter
   deadline: whatever trips, the buffered span events must nest. *)
let query_of inst =
  let inst =
    match (inst.subj, inst.obj) with
    | (`Node _ | `Ghost), (`Node _ | `Ghost) -> { inst with obj = `Fresh }
    | _ -> inst
  in
  (inst, Q.make ~head:(Q.conjunct_vars (conjunct_of inst)) [ conjunct_of inst ])

let trace_nesting_prop =
  QCheck2.Test.make ~name:"trace spans stay balanced under faults + deadlines" ~count:40
    QCheck2.Gen.(triple (gen_instance ~mode:Q.Approx) (int_bound 1_000_000) (int_bound 30_000))
    (fun (inst, seed, timeout_ns) ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let options = { Options.default with Options.timeout_ns = Some timeout_ns } in
      (* rings deep enough that nothing wraps: the property checks every span *)
      Flight.enable ~capacity:65536 ();
      let counter = ref 0 in
      (Governor.now_ns :=
         fun () ->
           incr counter;
           !counter * 97);
      Failpoints.arm ~seed (List.map (fun p -> (p, 0.01)) Failpoints.all_points);
      let _ =
        Fun.protect
          ~finally:(fun () ->
            Failpoints.disarm ();
            Governor.now_ns := (fun () -> 0);
            Flight.disable ())
          (fun () -> Engine.run ~graph:g ~ontology:k ~options q)
      in
      let dropped = snd (Flight.stats ()) and events = spans () in
      Flight.clear ();
      dropped > 0 || span_depth_ok events)

(* --- engine: stream_stats mid-stream polling regression ----------------- *)

let poll_instance =
  {
    n_base = 12;
    edges = List.init 40 (fun i -> (i mod 12, "p", (i * 7) mod 12));
    types = [ (0, 0); (3, 1) ];
    regex = R.star (R.lbl "p");
    mode = Q.Approx;
    subj = `Var;
    obj = `Fresh;
  }

let collect ~poll st =
  let rec go acc =
    if poll then begin
      (* the regression: interrogating the stream between pulls must be
         free of side effects on the evaluation *)
      ignore (Engine.stream_stats st);
      ignore (Stats.copy (Engine.stream_stats st));
      ignore (Engine.metrics st)
    end;
    match Engine.next st with
    | Some a -> go ((a.Engine.bindings, a.Engine.distance) :: acc)
    | None -> List.rev acc
  in
  go []

let polling_regression_test () =
  let g, k = build poll_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") poll_instance.regex (Q.Var "Y") in
  let limit = 200 in
  let run ~poll =
    let governor = Governor.create ~max_answers:limit () in
    let st = Engine.open_query ~graph:g ~ontology:k ~governor q in
    let answers = collect ~poll st in
    (answers, Stats.copy (Engine.stream_stats st))
  in
  let plain_answers, plain_stats = run ~poll:false in
  let polled_answers, polled_stats = run ~poll:true in
  Alcotest.(check int) "same answer count" (List.length plain_answers) (List.length polled_answers);
  Alcotest.(check bool) "same answers in the same order" true (plain_answers = polled_answers);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "same counter" k k';
      (* the gc_* deltas are excluded: polling itself allocates (that's what
         they measure), so only the evaluation counters must be identical *)
      if not (String.length k >= 3 && String.sub k 0 3 = "gc_") then
        Alcotest.(check int) ("counter " ^ k ^ " unperturbed") v v')
    (assoc plain_stats) (assoc polled_stats)

let stream_stats_cached_test () =
  let g, k = build poll_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") poll_instance.regex (Q.Var "Y") in
  let st = Engine.open_query ~graph:g ~ontology:k q in
  ignore (Engine.next st);
  Alcotest.(check bool) "stream_stats reuses one record (no per-poll allocation)" true
    (Engine.stream_stats st == Engine.stream_stats st)

(* --- explain ------------------------------------------------------------ *)

let explain_test () =
  let g, k = build poll_instance in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") (R.star (R.lbl "p")) (Q.Var "Y") in
  let plan = Engine.explain ~graph:g ~ontology:k q in
  Alcotest.(check string) "single conjunct join" "single-conjunct" plan.Obs.Explain.join;
  Alcotest.(check int) "one conjunct plan" 1 (List.length plan.Obs.Explain.conjuncts);
  let c = List.hd plan.Obs.Explain.conjuncts in
  Alcotest.(check string) "APPROX compiles A_R" "A_R" c.Obs.Explain.automaton;
  Alcotest.(check bool) "automaton has states" true (c.Obs.Explain.states > 0);
  Alcotest.(check bool) "counters empty before annotate" true (c.Obs.Explain.counters = []);
  let rendered = Format.asprintf "%a" Obs.Explain.pp plan in
  Alcotest.(check bool) "text rendering non-empty" true (String.length rendered > 0);
  (match Json.parse (Json.to_string (Obs.Explain.to_json plan)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "explain JSON does not re-parse: %s" msg);
  (* annotate after a drain fills live counters *)
  let st = Engine.open_query ~graph:g ~ontology:k q in
  let outcome = Engine.drain ~limit:50 st in
  Engine.annotate st plan;
  Alcotest.(check bool) "counters filled after annotate" true (c.Obs.Explain.counters <> []);
  Alcotest.(check bool) "analysis filled after annotate" true (plan.Obs.Explain.analysis <> []);
  Alcotest.(check int) "annotated answers match the outcome"
    (List.length outcome.Engine.answers)
    (List.assoc "answers" c.Obs.Explain.counters);
  match Json.parse (Json.to_string (Metrics.to_json outcome.Engine.metrics)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "metrics JSON does not re-parse: %s" msg

let () =
  Alcotest.run "obs"
    [
      ( "exec_stats",
        [
          QCheck_alcotest.to_alcotest merge_assoc_prop;
          Alcotest.test_case "peak_queue merges as max" `Quick peak_queue_max_test;
          Alcotest.test_case "reset zeroes every field" `Quick reset_test;
          Alcotest.test_case "copy is independent" `Quick copy_independent_test;
          Alcotest.test_case "field_names/to_assoc agree" `Quick field_names_test;
          Alcotest.test_case "scan-ns n/a without a clock" `Quick scan_ns_na_test;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "log2 bucket boundaries" `Quick bucket_boundary_test;
          QCheck_alcotest.to_alcotest bucket_membership_prop;
          Alcotest.test_case "observe aggregates" `Quick histogram_observe_test;
          Alcotest.test_case "registry merge" `Quick registry_merge_test;
        ] );
      ( "json",
        [
          Alcotest.test_case "non-finite floats encode as null" `Quick float_nonfinite_test;
          Alcotest.test_case "awkward floats round-trip" `Quick float_roundtrip_cases_test;
          QCheck_alcotest.to_alcotest float_roundtrip_prop;
        ] );
      ( "profile",
        [
          Alcotest.test_case "of_metrics / JSON round-trip" `Quick profile_roundtrip_test;
          Alcotest.test_case "empty registry profile" `Quick profile_empty_test;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled tracer records nothing" `Quick trace_disabled_test;
          Alcotest.test_case "spans close on exceptions" `Quick trace_exception_test;
          Alcotest.test_case "export re-parses, ts rebased" `Quick trace_json_test;
          Alcotest.test_case "dropped count surfaced in export" `Quick trace_dropped_test;
          Alcotest.test_case "truncated export ends with an orphan close" `Quick trace_truncated_test;
          Alcotest.test_case "one recording, same spans in both exports" `Quick trace_both_exports_test;
          QCheck_alcotest.to_alcotest trace_nesting_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mid-stream polling does not perturb" `Quick polling_regression_test;
          Alcotest.test_case "stream_stats is cached" `Quick stream_stats_cached_test;
          Alcotest.test_case "explain + annotate" `Quick explain_test;
        ] );
    ]
