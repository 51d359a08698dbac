(* omega_serve: the always-on query daemon (and its line client).

   `run` serves the line-delimited JSON protocol of Server.Protocol over a
   Unix-domain socket (or stdio for tests/pipelines): crash-only request
   isolation, per-tenant overload shedding, SIGTERM/SIGINT graceful drain,
   SIGHUP audit-log rotation.  `call` is the matching client: one request
   line in, one response line out, exit code = the response's code — the
   same taxonomy as `omega query`. *)

open Cmdliner

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve one session over stdin/stdout instead of a socket (tests, pipelines).")
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Global cap on concurrently evaluating requests; beyond it requests are shed.")
  in
  let tenant_inflight =
    Arg.(
      value & opt int 2
      & info [ "tenant-inflight" ] ~docv:"N"
          ~doc:"Per-tenant share of the in-flight cap (fair admission).")
  in
  let retry_after_ms =
    Arg.(
      value & opt int 50
      & info [ "retry-after-ms" ] ~docv:"MS" ~doc:"Backpressure hint returned on shed responses.")
  in
  let hard_timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "hard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "The stuck-query reaper: cancel any request running longer than MS, whatever budgets \
             it asked for.")
  in
  let drain_grace_ms =
    Arg.(
      value & opt int 500
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:"How long a drain waits for cancelled in-flight requests before exiting.")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:"Request-frame cap: longer lines are rejected without being materialised.")
  in
  let default_limit =
    Arg.(
      value & opt int 100
      & info [ "limit" ] ~docv:"N" ~doc:"Answer limit when a request names none.")
  in
  let max_limit =
    Arg.(
      value & opt int 1000
      & info [ "max-limit" ] ~docv:"N" ~doc:"Ceiling on any request's answer limit.")
  in
  let debug_ops =
    Arg.(
      value & flag
      & info [ "enable-debug-ops" ]
          ~doc:
            "Accept the $(b,sleep) drill op (occupies an admission slot in cancellable naps) — \
             how the chaos suite and CI provoke deterministic sheds and drain cuts.  Off in \
             production.")
  in
  let run data lenient socket stdio audit failpoints max_inflight tenant_inflight retry_after_ms
      hard_timeout_ms drain_grace_ms max_line_bytes default_limit max_limit options debug_ops =
    if (not stdio) && socket = None then begin
      Printf.eprintf "omega_serve run: need --socket PATH (or --stdio)\n";
      exit 2
    end;
    Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
    ignore (Front.start ~audit ~failpoints);
    let graph, ontology = Front.load ~lenient data in
    let config =
      {
        Server.Daemon.max_line_bytes;
        max_inflight;
        tenant_inflight;
        retry_after_ms;
        hard_timeout_ms;
        drain_grace_ms;
        max_limit;
        default_limit;
        options;
        debug_ops;
      }
    in
    let t = Server.Daemon.create ~graph ~ontology config in
    let on_drain _ = Server.Daemon.request_drain t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_drain);
    (try Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Server.Daemon.request_audit_reopen t))
     with Invalid_argument _ -> ());
    if stdio then Server.Daemon.serve_stdio t
    else begin
      let socket = Option.get socket in
      Printf.eprintf "omega_serve: listening on %s\n%!" socket;
      Server.Daemon.run_unix t ~socket;
      let served, shed, errors = Server.Daemon.counts t in
      Printf.eprintf "omega_serve: drained (served %d, shed %d, errors %d)\n%!" served shed errors
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the always-on query daemon (Unix socket or stdio).")
    Term.(
      const run $ Front.data $ Front.lenient $ socket $ stdio $ Front.audit $ Front.failpoints
      $ max_inflight $ tenant_inflight $ retry_after_ms $ hard_timeout_ms $ drain_grace_ms
      $ max_line_bytes $ default_limit $ max_limit $ Front.options $ debug_ops)

(* --- call ------------------------------------------------------------ *)

let call_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")
  in
  let request =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"REQUEST" ~doc:"Request lines (JSON objects); stdin when none are given.")
  in
  let run socket requests =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "cannot connect to %s: %s\n" socket (Unix.error_message e);
       exit 1);
    let ic = Unix.in_channel_of_descr fd in
    let last_code = ref 0 in
    let roundtrip line =
      if String.trim line <> "" then begin
        Server.Daemon.write_line fd line;
        match input_line ic with
        | resp ->
          print_endline resp;
          last_code :=
            Option.value ~default:1
              (Option.bind (Result.to_option (Obs.Json.parse resp)) Server.Protocol.response_code)
        | exception End_of_file ->
          Printf.eprintf "connection closed before a response arrived\n";
          exit 1
      end
    in
    (match requests with
    | [] -> ( try
                while true do
                  roundtrip (input_line stdin)
                done
              with End_of_file -> ())
    | lines -> List.iter roundtrip lines);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit !last_code
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send request lines to a running daemon and print the response lines; the exit code is \
          the last response's code (the CLI taxonomy: 0 ok, 2 error, 3/4/5 partial, 6 rejected, \
          7 shed).")
    Term.(const run $ socket $ request)

let () =
  let doc = "always-on flexible-RPQ query server (crash-only, shedding, graceful drain)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "omega_serve" ~version:"1.0.0" ~doc) [ run_cmd; call_cmd ]))
