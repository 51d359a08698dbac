(* The parallel flight recorder (lib/obs/flight.ml) and its offline replay
   checker (lib/obs/replay.ml):

   - ring semantics: wraparound keeps the *newest* events and the dropped
     counter is exact; concurrent single-writer rings at 2 and 4 domains
     publish consistent snapshots to a racing reader;
   - codec: every event kind round-trips through the versioned JSONL
     codec, dumps round-trip through [load], and a crash-truncated tail is
     tolerated (skipped and counted, never fatal);
   - the invariant checker: one unit test per rule, including the
     seal-overrun rule that caught the sealed-bucket window of ROADMAP
     open item 5 (a tripped shard's term must stay in the seal bound);
   - the online monitor: captures the first violation with its event
     window and auto-dumps a postmortem; a clean flow passes [assert_ok];
   - replay: the committed violation fixture is localised to the injected
     seal-overrun, and the postmortem rendering is pinned byte-for-byte
     against fixtures/flight_golden.txt (the `omega_report --flight`
     section prints exactly this). *)

module Flight = Obs.Flight
module Replay = Obs.Replay

let with_recorder ?capacity f =
  Flight.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Flight.Monitor.disable ();
      Flight.disable ();
      Flight.set_dump_target None;
      Flight.clear ())
    f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_temp_file f =
  let path = Filename.temp_file "omega-flight-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* --- ring semantics ----------------------------------------------------- *)

let wraparound_test () =
  with_recorder ~capacity:8 (fun () ->
      for d = 0 to 19 do
        Flight.record ~flow:0 ~shard:0 (Flight.Deliver { dist = d })
      done;
      let evs = Flight.events () in
      Alcotest.(check int) "ring keeps exactly the capacity" 8 (List.length evs);
      Alcotest.(check (list int)) "the newest events survive"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun (e : Flight.event) -> e.Flight.seq) evs);
      let recorded, dropped = Flight.stats () in
      Alcotest.(check int) "every record counted" 20 recorded;
      Alcotest.(check int) "dropped counter is exact" 12 dropped)

(* N writer domains each publish [per_domain] events into their own ring
   while the main domain repeatedly snapshots: no snapshot may contain a
   duplicated sequence number or be unsorted (the publication order
   guarantees a reader never sees an unpublished slot), and after the join
   every event is present exactly once. *)
let concurrent_test n () =
  let per_domain = 200 in
  with_recorder ~capacity:4096 (fun () ->
      let writers =
        Array.init n (fun i ->
            Domain.spawn (fun () ->
                for d = 0 to per_domain - 1 do
                  Flight.record ~flow:0 ~shard:i (Flight.Deliver { dist = d })
                done))
      in
      (* racing reader: every snapshot must be internally consistent *)
      for _ = 1 to 50 do
        let evs = Flight.events () in
        let seqs = List.map (fun (e : Flight.event) -> e.Flight.seq) evs in
        if List.sort_uniq compare seqs <> seqs then
          Alcotest.fail "snapshot has duplicated or unsorted sequence numbers"
      done;
      Array.iter Domain.join writers;
      let evs = Flight.events () in
      Alcotest.(check int) "all events present after join" (n * per_domain) (List.length evs);
      Alcotest.(check (list int)) "sequence numbers are a gapless range"
        (List.init (n * per_domain) Fun.id)
        (List.map (fun (e : Flight.event) -> e.Flight.seq) evs);
      (* per-shard (= per-writer) subsequences must be in increasing dist
         order: the single-writer ring preserves its own program order *)
      for i = 0 to n - 1 do
        let dists =
          List.filter_map
            (fun (e : Flight.event) ->
              match e.Flight.kind with
              | Flight.Deliver { dist } when e.Flight.shard = i -> Some dist
              | _ -> None)
            evs
        in
        Alcotest.(check (list int))
          (Printf.sprintf "writer %d's events kept their order" i)
          (List.init per_domain Fun.id) dists
      done;
      let recorded, dropped = Flight.stats () in
      Alcotest.(check int) "recorded total" (n * per_domain) recorded;
      Alcotest.(check int) "nothing dropped below capacity" 0 dropped)

(* --- codec -------------------------------------------------------------- *)

let sample_events =
  let mk seq kind = { Flight.seq; ts_ns = 1000 * seq; domain = 1; flow = 0; shard = 2; kind } in
  [
    mk 0 (Flight.Flow_open { shards = 4; slack = 2; label = "shard" });
    mk 1 Flight.Shard_start;
    mk 2 (Flight.Deliver { dist = 7 });
    mk 3 (Flight.Park { qlen = 8192 });
    mk 4 Flight.Unpark;
    mk 5 (Flight.Heartbeat { qlen = 12; last = 9 });
    mk 6 (Flight.Shard_done { complete = false; answers = 420 });
    mk 7
      (Flight.Seal
         {
           bound = 11;
           batch = 3;
           inputs =
             [
               { Flight.i_shard = 0; i_last = 13; i_state = 0 };
               { Flight.i_shard = 1; i_last = 11; i_state = 2 };
             ];
         });
    mk 8 (Flight.Emit { dist = 3; x = 17; y = 42 });
    mk 9 (Flight.Mark { mark = 40 });
    mk 10 (Flight.Stall { silent_ns = 300_000_000 });
    mk 11 Flight.Stop;
    mk 12 (Flight.Trip { reason = "deadline"; tuples = 310; answers = 4 });
    mk 13
      (Flight.Span
         { ph = Flight.Complete 1500; name = "seed.batch"; cat = "seed"; args = [ ("seeds", Flight.Num 3) ] });
  ]

(* one span per phase: the tag list above has one entry per kind *)
let span_phases =
  List.mapi
    (fun i ph ->
      {
        Flight.seq = 20 + i;
        ts_ns = 7;
        domain = 0;
        flow = -1;
        shard = -1;
        kind = Flight.Span { ph; name = "build.approx"; cat = "build"; args = [ ("k", Flight.Str "v") ] };
      })
    Flight.[ Begin; End; Instant; Complete 9; Meta ]

let codec_roundtrip_test () =
  List.iter
    (fun ev ->
      match Flight.of_json (Flight.to_json ev) with
      | Ok ev' ->
        if ev' <> ev then
          Alcotest.failf "event %s did not round-trip" (Flight.kind_tag ev.Flight.kind)
      | Error msg -> Alcotest.failf "%s: %s" (Flight.kind_tag ev.Flight.kind) msg)
    (sample_events @ span_phases);
  (* the string rendering exists for every kind (postmortem windows) *)
  List.iter (fun ev -> ignore (Format.asprintf "%a" Flight.pp_event ev)) (sample_events @ span_phases);
  Alcotest.(check (list string)) "tag list matches the constructors"
    (List.map (fun e -> Flight.kind_tag e.Flight.kind) sample_events)
    Flight.all_tags

let dump_roundtrip_test () =
  with_recorder (fun () ->
      Flight.record ~flow:0 (Flight.Flow_open { shards = 1; slack = 0; label = "shard" });
      Flight.record ~flow:0 ~shard:0 Flight.Shard_start;
      for d = 0 to 4 do
        Flight.record ~flow:0 ~shard:0 (Flight.Deliver { dist = d })
      done;
      Flight.record ~flow:0 ~shard:0 (Flight.Shard_done { complete = true; answers = 5 });
      let live = Flight.events () in
      with_temp_file (fun path ->
          let n = Flight.dump path in
          Alcotest.(check int) "dump reports the event count" (List.length live) n;
          (match Flight.load path with
          | Error msg -> Alcotest.fail msg
          | Ok (meta, evs, skipped) ->
            Alcotest.(check int) "no skipped lines" 0 skipped;
            (match meta with
            | None -> Alcotest.fail "dump has no meta line"
            | Some m ->
              Alcotest.(check int) "meta recorded" (List.length live) m.Flight.m_recorded;
              Alcotest.(check int) "meta dropped" 0 m.Flight.m_dropped);
            if evs <> live then Alcotest.fail "loaded events differ from the live snapshot");
          (* crash truncation: cut the file mid-way through the last line —
             the loader must skip-and-count it, keeping everything before *)
          let contents = In_channel.with_open_bin path In_channel.input_all in
          let cut = String.rindex (String.sub contents 0 (String.length contents - 1)) '\n' in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub contents 0 (cut + 5)));
          match Flight.load path with
          | Error msg -> Alcotest.failf "truncated dump must still load: %s" msg
          | Ok (meta, evs, skipped) ->
            Alcotest.(check bool) "meta survives truncation" true (meta <> None);
            Alcotest.(check int) "the torn line is skipped and counted" 1 skipped;
            Alcotest.(check int) "all whole lines kept" (List.length live - 1) (List.length evs)))

(* A wrapped ring: the dump carries only what the rings kept, and the meta
   header's totals account for the rest (recorded - dropped = events).  The
   strict loader (validate --flight) must accept it. *)
let wrapped_strict_test () =
  with_recorder ~capacity:8 (fun () ->
      let worker =
        Domain.spawn (fun () ->
            for d = 0 to 29 do
              Flight.record ~flow:0 ~shard:1 (Flight.Deliver { dist = d })
            done)
      in
      for d = 0 to 19 do
        Flight.record ~flow:0 ~shard:0 (Flight.Deliver { dist = d })
      done;
      Domain.join worker;
      with_temp_file (fun path ->
          let n = Flight.dump path in
          Alcotest.(check int) "two rings of 8" 16 n;
          match Flight.load ~strict:true path with
          | Error msg -> Alcotest.failf "wrapped dump rejected: %s" msg
          | Ok (meta, evs, _) ->
            let m = Option.get meta in
            Alcotest.(check (pair int int)) "meta totals" (50, 34) (m.Flight.m_recorded, m.Flight.m_dropped);
            Alcotest.(check int) "recorded - dropped = events" (m.m_recorded - m.m_dropped) (List.length evs)))

(* A wrapped consumer ring lost the flow's open and its first seal: the
   replay cannot know the sealed bound before the first retained seal, so
   it checks from there — and still catches a violation after it. *)
let wrapped_replay_test () =
  let replay () =
    with_temp_file (fun path ->
        ignore (Flight.dump path);
        match Replay.load path with Ok r -> r | Error msg -> Alcotest.fail msg)
  in
  with_recorder ~capacity:8 (fun () ->
      Flight.record ~flow:0 (Flight.Flow_open { shards = 1; slack = 0; label = "shard" });
      Flight.record ~flow:0 (Flight.Seal { bound = 5; batch = 1; inputs = [ { Flight.i_shard = 0; i_last = 5; i_state = 0 } ] });
      for x = 0 to 9 do
        Flight.record ~flow:0 (Flight.Emit { dist = 1; x; y = 0 })
      done;
      Alcotest.(check bool) "emits of a lost seal are not violations" true (Replay.ok (replay ()));
      Flight.record ~flow:0 (Flight.Seal { bound = 7; batch = 1; inputs = [ { Flight.i_shard = 0; i_last = 7; i_state = 0 } ] });
      Flight.record ~flow:0 (Flight.Emit { dist = 9; x = 0; y = 0 });
      match (replay ()).Replay.violation with
      | Some v -> Alcotest.(check string) "checked from the retained seal" "emit-unsealed" v.Flight.v_rule
      | None -> Alcotest.fail "the emit above the retained seal was not flagged")

(* The strict reader fails on the first bad line, naming it; a header
   whose totals do not match the events fails too.  The committed v1
   fixtures pass it. *)
let strict_errors_test () =
  List.iter
    (fun f ->
      match Flight.load ~strict:true f with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "v1 fixture %s rejected: %s" f msg)
    [ "fixtures/flight_fixture.jsonl"; "fixtures/flight_violation.jsonl" ];
  let lines = In_channel.with_open_bin "fixtures/flight_fixture.jsonl" In_channel.input_all |> String.split_on_char '\n' in
  let expect_error what edit needle =
    with_temp_file (fun path ->
        Out_channel.with_open_bin path (fun oc -> output_string oc (String.concat "\n" (edit lines)));
        match Flight.load ~strict:true path with
        | Ok _ -> Alcotest.failf "%s: accepted" what
        | Error msg ->
          if not (contains msg needle) then
            Alcotest.failf "%s: error %S does not mention %S" what msg needle)
  in
  expect_error "torn line" (List.mapi (fun i l -> if i = 2 then String.sub l 0 10 else l)) "line 3:";
  expect_error "dropped event" (List.filteri (fun i _ -> i <> 5)) "the dump carries 47";
  expect_error "no header" List.tl "line 1:";
  expect_error "reordered" (List.mapi (fun i l -> if i = 3 then List.nth lines 4 else if i = 4 then List.nth lines 3 else l)) "line 5:"

(* --- the invariant checker --------------------------------------------- *)

(* Feed a synthetic interleaving to [Check.step]; return the first
   violation. *)
let run_check ?wrapped evs =
  let st = Flight.Check.init ?wrapped () in
  let rec go i = function
    | [] -> None
    | kindspec :: rest -> (
      let shard, kind = kindspec in
      let ev = { Flight.seq = i; ts_ns = 1000 * i; domain = 0; flow = 0; shard; kind } in
      match Flight.Check.step st ev with Some (rule, _) -> Some rule | None -> go (i + 1) rest)
  in
  go 0 evs

let open2 = (-1, Flight.Flow_open { shards = 2; slack = 0; label = "shard" })
let deliver s d = (s, Flight.Deliver { dist = d })
let done_ s complete = (s, Flight.Shard_done { complete; answers = 0 })
let seal b = (-1, Flight.Seal { bound = b; batch = 1; inputs = [] })
let emit d = (-1, Flight.Emit { dist = d; x = 0; y = d })
let emit0 x = (-1, Flight.Emit { dist = 0; x; y = 0 })
let mark s m = (s, Flight.Mark { mark = m })

let check_rules_test () =
  let cases =
    [
      ( "clean flow passes",
        [ open2; deliver 0 2; deliver 1 3; done_ 1 true; done_ 0 true; seal max_int; emit 2; emit 3 ],
        None );
      ( "a complete shard leaves the bound",
        [ open2; deliver 0 5; done_ 0 true; deliver 1 3; seal 3 ],
        None );
      (* THE open-item-5 rule: an incomplete (tripped/stopped) shard's term
         stays in the min — sealing past its frontier is the bug the
         recorder caught in the old [Par.bound_locked] *)
      ( "seal-overrun: bound past a tripped shard's frontier",
        [ open2; deliver 0 5; deliver 1 3; done_ 1 false; seal 6 ],
        Some "seal-overrun" );
      ( "seal-overrun: bound past a live shard's frontier",
        [ open2; deliver 0 5; deliver 1 3; seal 4 ],
        Some "seal-overrun" );
      ( "seal-regression: the bound never decreases",
        [ open2; deliver 0 9; deliver 1 9; seal 8; seal 7 ],
        Some "seal-regression" );
      ( "shard-regression: per-shard streams are monotone up to slack",
        [ open2; deliver 0 5; deliver 0 3 ],
        Some "shard-regression" );
      ( "late-delivery: nothing lands below a sealed bound",
        [ open2; deliver 0 9; deliver 1 9; seal 8; deliver 1 2 ],
        Some "late-delivery" );
      ( "emit-unsealed: answers only leave sealed buckets",
        [ open2; deliver 0 9; deliver 1 9; seal 8; emit 8 ],
        Some "emit-unsealed" );
      ( "emit-order: the canonical (dist, x, y) order",
        [ open2; deliver 0 9; deliver 1 9; seal 8; emit 5; emit 3 ],
        Some "emit-order" );
      (* the distance-0 watermark: shard marks bound the consumer's *)
      ( "distance-0 emits below the watermark pass",
        [ open2; mark 0 5; mark 1 3; mark (-1) 3; emit0 0; emit0 2 ],
        None );
      ( "a complete shard leaves the watermark",
        [ open2; mark 0 5; mark 1 3; done_ 1 true; mark (-1) 5; emit0 4 ],
        None );
      ( "mark-overrun: watermark past a live shard's mark",
        [ open2; mark 0 5; mark 1 3; mark (-1) 4 ],
        Some "mark-overrun" );
      ( "mark-overrun: a tripped shard's mark stays in the min",
        [ open2; mark 0 5; mark 1 3; done_ 1 false; mark (-1) 5 ],
        Some "mark-overrun" );
      ( "emit-unsealed: a distance-0 emit at the watermark",
        [ open2; mark 0 5; mark 1 5; mark (-1) 5; emit0 5 ],
        Some "emit-unsealed" );
    ]
  in
  List.iter
    (fun (name, evs, expect) ->
      Alcotest.(check (option string)) name expect (run_check evs))
    cases;
  (* a wrapped dump may have lost shard marks: the consumer's are trusted *)
  Alcotest.(check (option string)) "wrapped: mark-overrun not checked" None
    (run_check ~wrapped:true [ open2; mark 0 5; mark (-1) 5; emit0 4 ])

(* slack shifts both the monotonicity tolerance and the safe bound *)
let check_slack_test () =
  Alcotest.(check (option string)) "regression within slack is fine" None
    (run_check
       [ (-1, Flight.Flow_open { shards = 1; slack = 2; label = "s" }); deliver 0 5; deliver 0 3 ]);
  Alcotest.(check (option string)) "safe bound is last - slack"
    (Some "seal-overrun")
    (run_check
       [ (-1, Flight.Flow_open { shards = 1; slack = 2; label = "s" }); deliver 0 5; seal 4 ])

(* --- the online monitor -------------------------------------------------- *)

let monitor_violation_test () =
  with_temp_file (fun target ->
      with_recorder (fun () ->
          Flight.set_dump_target (Some target);
          Flight.Monitor.enable ();
          Flight.record ~flow:0 (Flight.Flow_open { shards = 2; slack = 0; label = "shard" });
          Flight.record ~flow:0 ~shard:0 (Flight.Deliver { dist = 5 });
          Flight.record ~flow:0 ~shard:1 (Flight.Deliver { dist = 3 });
          Flight.record ~flow:0 ~shard:1 (Flight.Shard_done { complete = false; answers = 1 });
          Flight.record ~flow:0 (Flight.Seal { bound = 6; batch = 1; inputs = [] });
          (match Flight.Monitor.first_violation () with
          | None -> Alcotest.fail "the monitor missed the seal-overrun"
          | Some v ->
            Alcotest.(check string) "rule" "seal-overrun" v.Flight.v_rule;
            Alcotest.(check int) "the offending seal is localised" 4 v.Flight.v_seq;
            (match List.rev v.Flight.v_window with
            | last :: _ ->
              Alcotest.(check int) "window ends at the offender" v.Flight.v_seq last.Flight.seq
            | [] -> Alcotest.fail "empty violation window");
            ignore (Format.asprintf "%a" Flight.pp_violation v));
          (* the automatic postmortem dump landed on the configured target *)
          (match Flight.Monitor.last_dump_path () with
          | Some p when p = target -> ()
          | Some p -> Alcotest.failf "auto-dump went to %s, expected %s" p target
          | None -> Alcotest.fail "no automatic dump");
          (match Replay.load target with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check bool) "the dump replays to the same violation" false (Replay.ok r));
          match Flight.Monitor.assert_ok () with
          | () -> Alcotest.fail "assert_ok must raise on a recorded violation"
          | exception Flight.Violation v ->
            Alcotest.(check string) "assert_ok raises the first violation" "seal-overrun"
              v.Flight.v_rule))

let monitor_clean_test () =
  with_recorder (fun () ->
      Flight.Monitor.enable ();
      Flight.record ~flow:0 (Flight.Flow_open { shards = 1; slack = 0; label = "shard" });
      Flight.record ~flow:0 ~shard:0 (Flight.Deliver { dist = 1 });
      Flight.record ~flow:0 ~shard:0 (Flight.Shard_done { complete = true; answers = 1 });
      Flight.record ~flow:0 (Flight.Seal { bound = max_int; batch = 1; inputs = [] });
      Flight.record ~flow:0 (Flight.Emit { dist = 1; x = 0; y = 0 });
      Flight.Monitor.assert_ok ();
      Alcotest.(check bool) "no violation" true (Flight.Monitor.first_violation () = None))

(* --- replay of the committed fixtures ----------------------------------- *)

let replay_clean_fixture_test () =
  match Replay.load "fixtures/flight_fixture.jsonl" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check bool) "clean fixture passes every invariant" true (Replay.ok r);
    Alcotest.(check int) "48 events (as cross-linked by the audit fixture)" 48
      (List.length r.Replay.events);
    Alcotest.(check int) "no sequence gaps" 0 r.Replay.seq_gaps;
    (match r.Replay.meta with
    | Some m -> Alcotest.(check int) "meta recorded" 48 m.Flight.m_recorded
    | None -> Alcotest.fail "fixture has no meta line")

(* The postmortem rendering is a contract: `omega_report --flight` prints
   exactly this (plus exit code 7), so the golden pins both the
   localisation (seal-overrun at seq 11) and the window formatting. *)
let replay_golden_test () =
  match Replay.load "fixtures/flight_violation.jsonl" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    (match r.Replay.violation with
    | Some v ->
      Alcotest.(check string) "rule" "seal-overrun" v.Flight.v_rule;
      Alcotest.(check int) "first violating event localised" 11 v.Flight.v_seq
    | None -> Alcotest.fail "the injected violation was not found");
    let expected = In_channel.with_open_bin "fixtures/flight_golden.txt" In_channel.input_all in
    let got = Format.asprintf "%a" Replay.pp r in
    Alcotest.(check string) "postmortem rendering matches the golden" expected got;
    (* the JSON view carries the same localisation *)
    (match Obs.Json.member "violation" (Replay.to_json r) with
    | Some (Obs.Json.Obj fields) ->
      Alcotest.(check bool) "violation.seq present" true
        (List.assoc_opt "seq" fields = Some (Obs.Json.Int 11))
    | _ -> Alcotest.fail "replay JSON has no violation object")

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest, dropped exact" `Quick wraparound_test;
          Alcotest.test_case "concurrent writers, racing reader (2 domains)" `Quick
            (concurrent_test 2);
          Alcotest.test_case "concurrent writers, racing reader (4 domains)" `Quick
            (concurrent_test 4);
        ] );
      ( "codec",
        [
          Alcotest.test_case "every kind round-trips" `Quick codec_roundtrip_test;
          Alcotest.test_case "dump/load round-trip + truncated tail" `Quick dump_roundtrip_test;
          Alcotest.test_case "wrapped dump passes the strict check" `Quick wrapped_strict_test;
          Alcotest.test_case "strict load names the bad line" `Quick strict_errors_test;
        ] );
      ( "check",
        [
          Alcotest.test_case "one case per invariant rule" `Quick check_rules_test;
          Alcotest.test_case "slack widens regressions and the bound" `Quick check_slack_test;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "violation captured, windowed, auto-dumped" `Quick
            monitor_violation_test;
          Alcotest.test_case "clean flow passes assert_ok" `Quick monitor_clean_test;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean fixture validates" `Quick replay_clean_fixture_test;
          Alcotest.test_case "violation fixture localised + golden rendering" `Quick
            replay_golden_test;
          Alcotest.test_case "wrapped dump replays from the first retained seal" `Quick
            wrapped_replay_test;
        ] );
    ]
