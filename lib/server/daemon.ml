module Json = Obs.Json

type config = {
  max_line_bytes : int;
  max_inflight : int;
  tenant_inflight : int;
  retry_after_ms : int;
  hard_timeout_ms : int option;
  drain_grace_ms : int;
  max_limit : int;
  default_limit : int;
  options : Core.Options.t;
  flex_timeout_ms : int option;
  flex_max_tuples : int option;
  debug_ops : bool;
}

let default_config =
  {
    max_line_bytes = 1024 * 1024;
    max_inflight = 8;
    tenant_inflight = 2;
    retry_after_ms = 50;
    hard_timeout_ms = None;
    drain_grace_ms = 500;
    max_limit = 1000;
    default_limit = 100;
    options = Core.Options.default;
    flex_timeout_ms = None;
    flex_max_tuples = None;
    debug_ops = false;
  }

type t = {
  graph : Graphstore.Graph.t;
  ontology : Ontology.t;
  config : config;
  admit : Admit.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  errors : int Atomic.t;
  drain_req : bool Atomic.t;
  reopen_req : bool Atomic.t;
  drained : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ~graph ~ontology config =
  (* crash-only writes: a response to a vanished client must surface as
     EPIPE (one aborted connection), never as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Graphstore.Graph.freeze graph;
  {
    graph;
    ontology;
    config;
    admit =
      Admit.create ~max_inflight:config.max_inflight ~tenant_inflight:config.tenant_inflight
        ~retry_after_ms:config.retry_after_ms ();
    served = Atomic.make 0;
    shed = Atomic.make 0;
    errors = Atomic.make 0;
    drain_req = Atomic.make false;
    reopen_req = Atomic.make false;
    drained = Atomic.make false;
    wake_r;
    wake_w;
  }

let counts t = (Atomic.get t.served, Atomic.get t.shed, Atomic.get t.errors)
let inflight t = Admit.inflight t.admit

(* --- the server side of the audit contract ----------------------------- *)

(* Stream-bearing requests audit through Engine.close; everything the
   engine never sees — sheds, protocol errors, crashes, sleeps, the drain
   marker — audits through these minimal records (class "server"). *)

let truncate_query s = if String.length s <= 256 then s else String.sub s 0 256 ^ "..."

let server_record ?(stats = []) ?(answers = 0) ~tenant ~termination ~reason ~query () =
  {
    Obs.Audit.ts_ns = !Obs.Clock.now_ns ();
    query_hash = Obs.Audit.hash query;
    query = truncate_query query;
    query_class = "server";
    plan = "server";
    termination;
    reason;
    answers;
    wall_ns = 0;
    cpu_ns = 0;
    est_states = 0;
    est_product = 0;
    actual_tuples = 0;
    domains = 0;
    shards = [];
    merge_wait_ns = 0;
    imbalance_pct = 0;
    flight = None;
    tenant = Some tenant;
    stats;
    gc = [];
  }

let audit_error t ~tenant ~tag ~query =
  Atomic.incr t.errors;
  Obs.Audit.emit (server_record ~tenant ~termination:"error" ~reason:(Some tag) ~query ())

let audit_shed t ~tenant ~draining ~query =
  Atomic.incr t.shed;
  Obs.Audit.emit
    (server_record ~tenant ~termination:"shed"
       ~reason:(Some (if draining then "draining" else "overload"))
       ~query ())

(* --- per-request budgets ----------------------------------------------- *)

let min_opt a b = match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (min x y)
let ms_to_ns = Option.map (fun ms -> ms * 1_000_000)

let is_flex (q : Core.Query.t) =
  List.exists (fun (c : Core.Query.conjunct) -> c.Core.Query.cmode <> Core.Query.Exact) q.conjuncts

(* The request can only tighten the server's budgets; a flexible-operator
   query (any APPROX/RELAX conjunct) additionally starts from the tighter
   flex defaults; the reaper's hard timeout caps every deadline. *)
let effective_options t (req : Protocol.request) q =
  let base = t.config.options in
  let flex = is_flex q in
  let timeout_ns =
    min_opt
      (min_opt
         (min_opt base.Core.Options.timeout_ns
            (if flex then ms_to_ns t.config.flex_timeout_ms else None))
         (ms_to_ns req.timeout_ms))
      (ms_to_ns t.config.hard_timeout_ms)
  in
  let max_tuples =
    min_opt
      (min_opt base.Core.Options.max_tuples (if flex then t.config.flex_max_tuples else None))
      req.max_tuples
  in
  let max_states = min_opt base.Core.Options.max_states req.max_states in
  { base with Core.Options.timeout_ns; max_tuples; max_states }

let effective_limit t (req : Protocol.request) =
  min (Option.value req.limit ~default:t.config.default_limit) t.config.max_limit

(* --- request handling (the isolation seam) ----------------------------- *)

let do_query t (req : Protocol.request) tk =
  match Core.Query_parser.parse_result req.query with
  | Error msg ->
    audit_error t ~tenant:req.tenant ~tag:"bad-query" ~query:req.query;
    Protocol.resp_error ~id:req.id (Protocol.Bad_query msg)
  | Ok q -> (
    let options = effective_options t req q in
    let limit = effective_limit t req in
    let governor = Core.Options.governor ~limit options in
    Admit.attach t.admit tk governor;
    match
      Core.Engine.open_query ~graph:t.graph ~ontology:t.ontology ~options ~governor
        ~tenant:req.tenant q
    with
    | exception Invalid_argument msg ->
      audit_error t ~tenant:req.tenant ~tag:"bad-query" ~query:req.query;
      Protocol.resp_error ~id:req.id (Protocol.Bad_query msg)
    | st ->
      (* drain closes the stream, which audits it (tenant-stamped) exactly
         once through the engine seam — trips and rejections included *)
      let outcome = Core.Engine.drain ~limit st in
      Atomic.incr t.served;
      Protocol.resp_outcome ~id:req.id ~tenant:req.tenant
        ~query_class:(Core.Engine.query_class st) outcome)

(* The drain/shed drill: occupy an admission slot in cancellable 10 ms
   naps, so tests and CI provoke overload and drain cuts without racing a
   real query's runtime. *)
let do_sleep t (req : Protocol.request) tk =
  let governor = Core.Governor.unlimited () in
  Admit.attach t.admit tk governor;
  let slept = ref 0 in
  while !slept < req.sleep_ms && Core.Governor.tripped governor = None do
    Thread.delay 0.01;
    slept := !slept + 10
  done;
  let cut = Option.map Core.Governor.reason_string (Core.Governor.tripped governor) in
  Atomic.incr t.served;
  Obs.Audit.emit
    (server_record ~tenant:req.tenant
       ~termination:(match cut with None -> "completed" | Some _ -> "exhausted")
       ~reason:cut ~query:"<sleep>" ());
  Protocol.resp_slept ~id:req.id ~tenant:req.tenant ~slept_ms:!slept ~cut

let handle_parsed t line =
  match Protocol.parse_request line with
  | Error (id, err) ->
    audit_error t ~tenant:"anon" ~tag:(Protocol.error_tag err) ~query:line;
    Protocol.resp_error ~id err
  | Ok req -> (
    match req.op with
    | Protocol.Ping -> Protocol.resp_pong ~id:req.id (* liveness probe: not audited *)
    | Protocol.Sleep when not t.config.debug_ops ->
      audit_error t ~tenant:req.tenant ~tag:"bad-request" ~query:"<sleep>";
      Protocol.resp_error ~id:req.id
        (Protocol.Bad_request "op \"sleep\" requires --enable-debug-ops")
    | Protocol.Query | Protocol.Sleep -> (
      match Admit.try_admit t.admit ~tenant:req.tenant with
      | Admit.Shed { retry_after_ms; draining } ->
        audit_shed t ~tenant:req.tenant ~draining
          ~query:(match req.op with Protocol.Sleep -> "<sleep>" | _ -> req.query);
        Protocol.resp_shed ~id:req.id ~tenant:req.tenant ~retry_after_ms ~draining
      | Admit.Admitted tk ->
        Fun.protect
          ~finally:(fun () -> Admit.release t.admit tk)
          (fun () ->
            match req.op with
            | Protocol.Sleep -> do_sleep t req tk
            | Protocol.Query | Protocol.Ping -> do_query t req tk)))

let handle_request t line =
  if String.trim line = "" then None
  else
    Some
      (Protocol.render
         (try handle_parsed t line
          with exn ->
            (* THE crash-only seam: whatever escaped above becomes a typed
               code-1 response and the daemon keeps serving *)
            let msg = Printexc.to_string exn in
            audit_error t ~tenant:"anon" ~tag:"crash" ~query:line;
            let id =
              match Json.parse line with
              | Ok j -> Option.value ~default:Json.Null (Json.member "id" j)
              | Error _ -> Json.Null
            in
            Protocol.resp_crash ~id msg))

let handle_oversized t =
  let err = Protocol.Request_too_large t.config.max_line_bytes in
  audit_error t ~tenant:"anon" ~tag:(Protocol.error_tag err) ~query:"<oversized>";
  Protocol.render (Protocol.resp_error ~id:Json.Null err)

(* --- transports -------------------------------------------------------- *)

(* One in_channel per connection, owned by its line scanner; responses are
   written straight to the descriptor (full-write loop) so there is exactly
   one owner to close.
   Read/write failures — injected faults, torn frames, EPIPE from a client
   that left — abort this connection only. *)

let write_all fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let serve_channel t ic ~send =
  let frames = Ntriples.Nt.scanner ~max_line_bytes:t.config.max_line_bytes ic in
  let continue = ref true in
  while !continue do
    match Ntriples.Nt.next_line frames with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> continue := false
    | `Eof -> continue := false
    | `Oversized -> if not (send (handle_oversized t)) then continue := false
    | `Line line -> (
      Core.Failpoints.check Core.Failpoints.Srv_read;
      match handle_request t line with
      | None -> ()
      | Some resp -> if not (send resp) then continue := false)
  done

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let send resp =
    match
      Core.Failpoints.check Core.Failpoints.Srv_write;
      write_all fd resp
    with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _ | Core.Failpoints.Injected _) -> false
  in
  (try serve_channel t ic ~send with Core.Failpoints.Injected _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- drain, reaper, signals -------------------------------------------- *)

let reap_stuck t =
  match t.config.hard_timeout_ms with
  | None -> 0
  | Some ms ->
    Admit.cancel_overdue t.admit ~now_ns:(!Obs.Clock.now_ns ()) ~max_age_ns:(ms * 1_000_000)
      ~reason:"stuck"

let drain t =
  if not (Atomic.exchange t.drained true) then begin
    Admit.begin_drain t.admit;
    let cut = Admit.cancel_all t.admit ~reason:"drain" in
    let deadline = Unix.gettimeofday () +. (float_of_int t.config.drain_grace_ms /. 1000.) in
    while Admit.inflight t.admit > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    let served, shed, errors = counts t in
    Obs.Audit.emit
      (server_record ~tenant:"server" ~termination:"drain" ~reason:None ~query:"<drain>"
         ~answers:served
         ~stats:
           [ ("served", served); ("shed", shed); ("errors", errors); ("cut", cut);
             ("stranded", Admit.inflight t.admit) ]
         ());
    Obs.Audit.disable ()
  end

let serve_stdio t =
  let send resp =
    print_string resp;
    print_newline ();
    flush stdout;
    true
  in
  (try serve_channel t stdin ~send with Core.Failpoints.Injected _ -> ());
  drain t

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

let request_drain t =
  Atomic.set t.drain_req true;
  wake t

let request_audit_reopen t =
  Atomic.set t.reopen_req true;
  wake t

let drain_wake_pipe t =
  let buf = Bytes.create 16 in
  try ignore (Unix.read t.wake_r buf 0 16) with Unix.Unix_error _ -> ()

let run_unix t ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  let srv = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 64;
  while not (Atomic.get t.drain_req) do
    (match Unix.select [ srv; t.wake_r ] [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem t.wake_r readable then drain_wake_pipe t;
      if Atomic.get t.reopen_req then begin
        Atomic.set t.reopen_req false;
        Obs.Audit.reopen ()
      end;
      if List.mem srv readable && not (Atomic.get t.drain_req) then (
        match
          Core.Failpoints.check Core.Failpoints.Srv_accept;
          Unix.accept ~cloexec:true srv
        with
        | exception Core.Failpoints.Injected _ ->
          (* abort one accept: take the pending connection and drop it *)
          (try
             let fd, _ = Unix.accept ~cloexec:true srv in
             Unix.close fd
           with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> ignore (Thread.create (fun fd -> serve_connection t fd) fd)));
    ignore (reap_stuck t)
  done;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  drain t
