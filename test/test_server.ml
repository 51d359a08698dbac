(* The query server's chaos suite: the crash-only / shed / drain contract.

   Protocol layer: torn, garbage and wrong-typed frames get typed code-2
   responses and the daemon answers the next request normally; an
   oversized frame is bounded at the transport (never materialised) and
   the connection stays usable; requests pipelined in one write are
   answered in order; injected accept/read/write faults abort
   one connection, never the process; a client disconnecting mid-stream
   is a non-event.

   Overload: a full in-flight set sheds with the configured
   retry_after_ms; a tenant at its own cap sheds while another tenant is
   still admitted (fairness); the stuck-query reaper cuts an over-age
   request through its governor.

   Drain: cancels in-flight requests (they answer partial/5 fault:drain),
   sheds new arrivals with reason "draining", and audits — every request
   exactly once, plus the final termination:"drain" marker whose stats
   reconcile with the served/shed/error counters.

   Rotation: Obs.Audit.reopen re-creates the sink at its path after a
   rename — the SIGHUP logrotate contract. *)

module Daemon = Server.Daemon
module Protocol = Server.Protocol
module Json = Obs.Json
module Graph = Graphstore.Graph

let check = Alcotest.check

let () = Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()))

(* --- fixture ----------------------------------------------------------- *)

let build_graph () =
  let g = Graph.create () in
  let n = Array.init 8 (fun i -> Graph.add_node g (Printf.sprintf "N%d" i)) in
  Array.iteri
    (fun i src ->
      List.iter (fun l -> Graph.add_edge_s g src l n.((i + 1) mod 8)) [ "a"; "b"; "knows" ])
    n;
  let k = Ontology.create (Graph.interner g) in
  Graph.freeze g;
  (g, k)

let make_daemon ?(config = Daemon.default_config) () =
  let graph, ontology = build_graph () in
  Daemon.create ~graph ~ontology config

let handle t line =
  match Daemon.handle_request t line with
  | None -> Alcotest.failf "no response for %S" line
  | Some resp -> (
    match Json.parse resp with
    | Error m -> Alcotest.failf "unparseable response %S: %s" resp m
    | Ok j -> j)

let code j =
  match Protocol.response_code j with
  | Some c -> c
  | None -> Alcotest.failf "response without a code: %s" (Json.to_string j)

let str_field k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let int_field k j = Option.bind (Json.member k j) Json.to_int

let with_audit f =
  let path = Filename.temp_file "omega_server_audit" ".jsonl" in
  Obs.Audit.enable path;
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.disable ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let load_audit path =
  match Obs.Audit.load path with
  | Ok (records, 0) -> records
  | Ok (_, skipped) -> Alcotest.failf "audit log has %d malformed line(s)" skipped
  | Error m -> Alcotest.failf "cannot load audit log: %s" m

let good_query = {|{"id":1,"tenant":"acme","query":"(?X) <- (N0, a, ?X)"}|}

(* wait until [cond] holds (the cooperative machinery needs real time) *)
let await ?(timeout_s = 5.) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Thread.delay 0.005
  done;
  check Alcotest.bool "condition reached before timeout" true (cond ())

(* --- request isolation ------------------------------------------------- *)

let test_garbage_frames () =
  let t = make_daemon () in
  List.iter
    (fun (frame, kind) ->
      let j = handle t frame in
      check Alcotest.int (Printf.sprintf "code 2 for %S" frame) 2 (code j);
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "error kind for %S" frame)
        (Some kind) (str_field "error_kind" j))
    [
      ("garbage", "bad-json");
      ("{\"id\":", "bad-json");
      ("[1,2,3]", "bad-json");
      ("{\"id\":1}", "bad-request");
      ("{\"query\":42}", "bad-request");
      ("{\"op\":\"nope\",\"query\":\"x\"}", "bad-request");
      ("{\"op\":false}", "bad-request");
      ("{\"tenant\":\"\",\"query\":\"(?X) <- (N0, a, ?X)\"}", "bad-request");
      ("{\"limit\":0,\"query\":\"(?X) <- (N0, a, ?X)\"}", "bad-request");
      ("{\"query\":\"(?X <- nonsense\"}", "bad-query");
      ("{\"query\":\"(?X) <- (?Y, a, ?Z)\"}", "bad-query");
    ];
  (* the daemon answers the next request normally: not wedged, not crashed *)
  let j = handle t good_query in
  check Alcotest.int "good query still served" 0 (code j);
  check Alcotest.bool "answers arrived" true (int_field "count" j = Some 1);
  (* blank lines are keep-alive noise, not errors *)
  check Alcotest.bool "blank line ignored" true (Daemon.handle_request t "  " = None);
  let _, _, errors = Daemon.counts t in
  check Alcotest.int "every bad frame counted" 11 errors

let test_errors_audited_exactly_once () =
  with_audit (fun path ->
      let t = make_daemon () in
      ignore (handle t "garbage");
      ignore (handle t good_query);
      ignore (handle t {|{"op":"ping"}|});
      (* ping is a liveness probe: deliberately not audited *)
      let records = load_audit path in
      check Alcotest.int "two records: one error, one query" 2 (List.length records);
      (match records with
      | [ err; ok ] ->
        check Alcotest.string "error record termination" "error" err.Obs.Audit.termination;
        check (Alcotest.option Alcotest.string) "error reason" (Some "bad-json")
          err.Obs.Audit.reason;
        check (Alcotest.option Alcotest.string) "error tenant" (Some "anon") err.Obs.Audit.tenant;
        check Alcotest.string "query record termination" "completed" ok.Obs.Audit.termination;
        check (Alcotest.option Alcotest.string) "query tenant stamped" (Some "acme")
          ok.Obs.Audit.tenant
      | _ -> Alcotest.fail "unexpected record shape");
      (* and the records round-trip the v3 schema *)
      List.iter
        (fun r ->
          match Obs.Audit.validate (Obs.Audit.to_json r) with
          | Ok () -> ()
          | Error m -> Alcotest.failf "server audit record fails validation: %s" m)
        records)

(* --- transport chaos --------------------------------------------------- *)

(* run one server-side connection over a socketpair; returns the client fd
   and the server thread *)
let connected_pair t =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Daemon.serve_connection t server) () in
  (client, th)

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  ignore (Unix.write fd b 0 (Bytes.length b))

let recv_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ -> if Bytes.get b 0 = '\n' then Buffer.contents buf else (Buffer.add_char buf (Bytes.get b 0); go ())
  in
  go ()

let test_oversized_frame () =
  let t = make_daemon ~config:{ Daemon.default_config with Daemon.max_line_bytes = 256 } () in
  let client, th = connected_pair t in
  send_line client (String.make 10_000 'x');
  let j = Result.get_ok (Json.parse (recv_line client)) in
  check Alcotest.int "oversized frame: code 2" 2 (code j);
  check (Alcotest.option Alcotest.string) "typed as request-too-large" (Some "request-too-large")
    (str_field "error_kind" j);
  (* the bounded reader consumed the tail: the connection is still usable *)
  send_line client good_query;
  let j = Result.get_ok (Json.parse (recv_line client)) in
  check Alcotest.int "same connection still serves" 0 (code j);
  Unix.close client;
  Thread.join th;
  let _, _, errors = Daemon.counts t in
  check Alcotest.int "oversized frame audited as an error" 1 errors

let test_disconnect_mid_stream () =
  let t = make_daemon () in
  let client, th = connected_pair t in
  (* a torn frame: half a request, then the client vanishes *)
  ignore (Unix.write client (Bytes.of_string "{\"id\":1,\"query\":\"(?X) <-") 0 24);
  Unix.close client;
  Thread.join th;
  (* the daemon is fine: direct requests still serve *)
  check Alcotest.int "daemon survives the disconnect" 0 (code (handle t good_query))

(* two requests pipelined in one write: the scanner hands out both frames
   from one read, and each gets its response, in order *)
let test_pipelined_frames () =
  let t = make_daemon () in
  let client, th = connected_pair t in
  let frame id = Printf.sprintf {|{"id":%d,"tenant":"acme","query":"(?X) <- (N0, a, ?X)"}|} id in
  let both = frame 1 ^ "\n" ^ frame 2 ^ "\n" in
  check Alcotest.int "one write" (String.length both)
    (Unix.write_substring client both 0 (String.length both));
  List.iter
    (fun id ->
      let j = Result.get_ok (Json.parse (recv_line client)) in
      check (Alcotest.option Alcotest.int) "responses in request order" (Some id) (int_field "id" j);
      check Alcotest.int "served" 0 (code j))
    [ 1; 2 ];
  Unix.close client;
  Thread.join th

let test_failpoint_faults () =
  let t = make_daemon () in
  (* read fault: the connection aborts after serving nothing *)
  Core.Failpoints.arm ~seed:7 [ (Core.Failpoints.Srv_read, 1.0) ];
  let client, th = connected_pair t in
  send_line client good_query;
  check Alcotest.string "read fault: connection closed without a response" "" (recv_line client);
  Unix.close client;
  Thread.join th;
  (* write fault: the request is handled (and audited) but the response
     write aborts the connection *)
  Core.Failpoints.arm ~seed:7 [ (Core.Failpoints.Srv_write, 1.0) ];
  let client, th = connected_pair t in
  send_line client good_query;
  check Alcotest.string "write fault: connection closed" "" (recv_line client);
  Unix.close client;
  Thread.join th;
  Core.Failpoints.disarm ();
  (* the daemon never noticed: a fresh connection serves normally *)
  let client, th = connected_pair t in
  send_line client good_query;
  let j = Result.get_ok (Json.parse (recv_line client)) in
  check Alcotest.int "daemon survives injected faults" 0 (code j);
  Unix.close client;
  Thread.join th

(* --- overload ---------------------------------------------------------- *)

let sleep_frame ?(tenant = "t1") ms =
  Printf.sprintf {|{"op":"sleep","tenant":"%s","ms":%d}|} tenant ms

let debug_config =
  { Daemon.default_config with Daemon.debug_ops = true; max_inflight = 1; retry_after_ms = 33 }

let test_flood_sheds () =
  let t = make_daemon ~config:debug_config () in
  let sleeper = Thread.create (fun () -> handle t (sleep_frame 2_000)) () in
  await (fun () -> Daemon.inflight t = 1);
  let j = handle t good_query in
  check Alcotest.int "full in-flight set sheds" 7 (code j);
  check Alcotest.string "shed status" "shed" (Option.get (str_field "status" j));
  check (Alcotest.option Alcotest.string) "shed reason" (Some "overload") (str_field "reason" j);
  check (Alcotest.option Alcotest.int) "configured retry hint" (Some 33)
    (int_field "retry_after_ms" j);
  (* cut the sleeper so the test exits promptly *)
  Daemon.drain t;
  Thread.join sleeper

let test_tenant_fairness () =
  let t =
    make_daemon
      ~config:
        { Daemon.default_config with Daemon.debug_ops = true; max_inflight = 4; tenant_inflight = 1 }
      ()
  in
  let sleeper = Thread.create (fun () -> handle t (sleep_frame ~tenant:"t1" 2_000)) () in
  await (fun () -> Daemon.inflight t = 1);
  (* t1 is at its per-tenant cap: shed, even though the global cap has room *)
  let j = handle t {|{"tenant":"t1","query":"(?X) <- (N0, a, ?X)"}|} in
  check Alcotest.int "flooding tenant shed" 7 (code j);
  (* t2 is unaffected: fairness *)
  let j = handle t {|{"tenant":"t2","query":"(?X) <- (N0, a, ?X)"}|} in
  check Alcotest.int "other tenant still admitted" 0 (code j);
  Daemon.drain t;
  Thread.join sleeper

let test_reaper_cuts_stuck () =
  let t =
    make_daemon
      ~config:{ debug_config with Daemon.hard_timeout_ms = Some 50; max_inflight = 2 }
      ()
  in
  let result = ref Json.Null in
  let sleeper = Thread.create (fun () -> result := handle t (sleep_frame 10_000)) () in
  await (fun () -> Daemon.inflight t = 1);
  Thread.delay 0.08 (* past the hard timeout *);
  check Alcotest.int "one stuck request reaped" 1 (Daemon.reap_stuck t);
  Thread.join sleeper;
  check Alcotest.int "stuck request answered partial/5" 5 (code !result);
  check (Alcotest.option Alcotest.string) "cut reason is the reaper's" (Some "fault:stuck")
    (str_field "reason" !result)

(* --- drain ------------------------------------------------------------- *)

let test_drain () =
  with_audit (fun path ->
      let t = make_daemon ~config:{ debug_config with Daemon.max_inflight = 2 } () in
      ignore (handle t good_query);
      let result = ref Json.Null in
      let sleeper = Thread.create (fun () -> result := handle t (sleep_frame 10_000)) () in
      await (fun () -> Daemon.inflight t = 1);
      Daemon.drain t;
      Thread.join sleeper;
      check Alcotest.int "in-flight request cut, not dropped" 5 (code !result);
      check (Alcotest.option Alcotest.string) "cut by the drain" (Some "fault:drain")
        (str_field "reason" !result);
      (* post-drain arrivals shed with the draining reason *)
      let j = handle t good_query in
      check Alcotest.int "draining server sheds" 7 (code j);
      check (Alcotest.option Alcotest.string) "draining reason" (Some "draining")
        (str_field "reason" j);
      (* audit: query + cut sleep + drain marker, exactly once each (the
         post-drain shed lands after the sink closed — by design: the
         marker is the log's final line) *)
      let records = load_audit path in
      check Alcotest.int "three records" 3 (List.length records);
      let drain_rec = List.nth records 2 in
      check Alcotest.string "final record is the drain marker" "drain"
        drain_rec.Obs.Audit.termination;
      check (Alcotest.option Alcotest.string) "marker tenant" (Some "server")
        drain_rec.Obs.Audit.tenant;
      let stat k = List.assoc k drain_rec.Obs.Audit.stats in
      check Alcotest.int "marker: served reconciles" 2 (stat "served");
      check Alcotest.int "marker: one request cut" 1 (stat "cut");
      check Alcotest.int "marker: nothing stranded" 0 (stat "stranded");
      (* drain is idempotent *)
      Daemon.drain t)

(* --- audit rotation (the SIGHUP contract) ------------------------------ *)

let test_audit_rotation () =
  let dir = Filename.temp_file "omega_rotate" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let live = Filename.concat dir "audit.jsonl" in
  let rotated = Filename.concat dir "audit.jsonl.1" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.disable ();
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Obs.Audit.enable live;
      let t = make_daemon () in
      ignore (handle t good_query);
      (* logrotate renames the live file, then SIGHUPs the daemon; the
         handler funnels into Obs.Audit.reopen — called directly here *)
      Sys.rename live rotated;
      Obs.Audit.reopen ();
      ignore (handle t good_query);
      check Alcotest.int "pre-rotation record stayed in the rotated file" 1
        (List.length (load_audit rotated));
      check Alcotest.bool "sink re-created the live path" true (Sys.file_exists live);
      check Alcotest.int "post-rotation record landed in the new file" 1
        (List.length (load_audit live)))

(* --- protocol unit surface --------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse_request good_query with
  | Ok req ->
    check Alcotest.string "tenant" "acme" req.Protocol.tenant;
    check Alcotest.bool "op query" true (req.Protocol.op = Protocol.Query)
  | Error _ -> Alcotest.fail "good query frame must parse");
  (match Protocol.parse_request {|{"id":"abc","op":"ping"}|} with
  | Ok req ->
    check Alcotest.bool "id echoed" true (req.Protocol.id = Json.String "abc");
    check Alcotest.string "tenant defaults" "anon" req.Protocol.tenant
  | Error _ -> Alcotest.fail "ping frame must parse");
  match Protocol.parse_request {|{"id":7,"query":true}|} with
  | Ok _ -> Alcotest.fail "wrong-typed query field must be rejected"
  | Error (id, err) ->
    check Alcotest.bool "id recovered into the error" true (id = Json.Int 7);
    check Alcotest.string "typed" "bad-request" (Protocol.error_tag err)

let () =
  Alcotest.run "server"
    [
      ( "isolation",
        [
          Alcotest.test_case "garbage frames answered, daemon lives" `Quick test_garbage_frames;
          Alcotest.test_case "audited exactly once" `Quick test_errors_audited_exactly_once;
        ] );
      ( "transport",
        [
          Alcotest.test_case "oversized frame bounded" `Quick test_oversized_frame;
          Alcotest.test_case "disconnect mid-stream" `Quick test_disconnect_mid_stream;
          Alcotest.test_case "injected read/write faults" `Quick test_failpoint_faults;
          Alcotest.test_case "pipelined frames answered in order" `Quick test_pipelined_frames;
        ] );
      ( "overload",
        [
          Alcotest.test_case "flood sheds with retry_after_ms" `Quick test_flood_sheds;
          Alcotest.test_case "per-tenant fairness" `Quick test_tenant_fairness;
          Alcotest.test_case "reaper cuts stuck queries" `Quick test_reaper_cuts_stuck;
        ] );
      ("drain", [ Alcotest.test_case "graceful drain" `Quick test_drain ]);
      ("rotation", [ Alcotest.test_case "SIGHUP audit reopen" `Quick test_audit_rotation ]);
      ("protocol", [ Alcotest.test_case "request parsing" `Quick test_protocol_parse ]);
    ]
