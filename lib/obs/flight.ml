let schema_version = 2
let env_var = "OMEGA_FLIGHT"

(* --- events ------------------------------------------------------------ *)

type input = { i_shard : int; i_last : int; i_state : int }
type arg = Str of string | Num of int
type args = (string * arg) list
type phase = Begin | End | Instant | Complete of int | Meta

type kind =
  | Flow_open of { shards : int; slack : int; label : string }
  | Shard_start
  | Deliver of { dist : int }
  | Park of { qlen : int }
  | Unpark
  | Heartbeat of { qlen : int; last : int }
  | Shard_done of { complete : bool; answers : int }
  | Seal of { bound : int; batch : int; inputs : input list }
  | Emit of { dist : int; x : int; y : int }
  | Stall of { silent_ns : int }
  | Stop
  | Trip of { reason : string; tuples : int; answers : int }
  | Span of { ph : phase; name : string; cat : string; args : args }

type event = { seq : int; ts_ns : int; domain : int; flow : int; shard : int; kind : kind }

let is_span = function Span _ -> true | _ -> false

(* The Chrome trace_event letter of a phase, also its dump encoding. *)
let phase_letter = function Begin -> "B" | End -> "E" | Instant -> "i" | Complete _ -> "X" | Meta -> "M"

let kind_tag = function
  | Flow_open _ -> "flow_open"
  | Shard_start -> "shard_start"
  | Deliver _ -> "deliver"
  | Park _ -> "park"
  | Unpark -> "unpark"
  | Heartbeat _ -> "heartbeat"
  | Shard_done _ -> "shard_done"
  | Seal _ -> "seal"
  | Emit _ -> "emit"
  | Stall _ -> "stall"
  | Stop -> "stop"
  | Trip _ -> "trip"
  | Span _ -> "span"

let all_tags =
  [
    "flow_open";
    "shard_start";
    "deliver";
    "park";
    "unpark";
    "heartbeat";
    "shard_done";
    "seal";
    "emit";
    "stall";
    "stop";
    "trip";
    "span";
  ]

let pp_args ppf args =
  List.iter
    (fun (k, v) ->
      match v with
      | Str s -> Format.fprintf ppf " %s=%s" k s
      | Num n -> Format.fprintf ppf " %s=%d" k n)
    args

let pp_kind ppf = function
  | Flow_open { shards; slack; label } ->
    Format.fprintf ppf "flow_open shards=%d slack=%d label=%s" shards slack label
  | Shard_start -> Format.pp_print_string ppf "shard_start"
  | Deliver { dist } -> Format.fprintf ppf "deliver dist=%d" dist
  | Park { qlen } -> Format.fprintf ppf "park qlen=%d" qlen
  | Unpark -> Format.pp_print_string ppf "unpark"
  | Heartbeat { qlen; last } -> Format.fprintf ppf "heartbeat qlen=%d last=%d" qlen last
  | Shard_done { complete; answers } ->
    Format.fprintf ppf "shard_done %s answers=%d" (if complete then "complete" else "incomplete") answers
  | Seal { bound; batch; inputs } ->
    let pp_bound ppf b =
      if b = max_int then Format.pp_print_string ppf "inf" else Format.pp_print_int ppf b
    in
    Format.fprintf ppf "seal bound=%a batch=%d inputs=[%s]" pp_bound bound batch
      (String.concat ";"
         (List.map
            (fun i ->
              Printf.sprintf "%d:%d%s" i.i_shard i.i_last
                (match i.i_state with 0 -> "" | 1 -> "/done" | _ -> "/tripped"))
            inputs))
  | Emit { dist; x; y } -> Format.fprintf ppf "emit dist=%d x=%d y=%d" dist x y
  | Stall { silent_ns } -> Format.fprintf ppf "stall silent_ns=%d" silent_ns
  | Stop -> Format.pp_print_string ppf "stop"
  | Trip { reason; tuples; answers } ->
    Format.fprintf ppf "trip reason=%s" reason;
    (* v1 dumps carry no work counts: they decode as 0 and print the reason alone *)
    if tuples > 0 || answers > 0 then Format.fprintf ppf " tuples=%d answers=%d" tuples answers
  | Span { ph; name; cat; args } ->
    Format.fprintf ppf "span %s %s cat=%s%a" (phase_letter ph) name cat pp_args args;
    (match ph with Complete d -> Format.fprintf ppf " dur_ns=%d" d | _ -> ())

let pp_event ppf ev =
  Format.fprintf ppf "seq=%-4d dom=%d flow=%d shard=%s %a" ev.seq ev.domain ev.flow
    (if ev.shard < 0 then "-" else string_of_int ev.shard)
    pp_kind ev.kind

(* --- the per-domain rings ---------------------------------------------- *)

(* One fixed-capacity wraparound ring per domain, single-writer: only the
   owning domain ever writes [buf] and [written], so recording takes no
   lock.  [written] is an Atomic purely for publication order — the slot is
   written before the count, so a concurrent reader that trusts [written]
   never observes an unpublished slot (it can still race a wrapping
   overwrite; snapshots are ordinarily taken after the flow quiesced, and
   the crash dump is explicitly best-effort). *)
type ring = { r_domain : int; buf : event option array; written : int Atomic.t }

let default_capacity = 4096
let on = ref false
let enabled () = !on

(* The detail level adds the per-answer events (Deliver, Emit) the default
   always-on level deliberately skips: at ~70ns a record they would put
   tens of percent on a cheap answer path, while Seal carries enough (its
   per-shard inputs) to validate every bound without them.  Tests and
   explicit forensic runs turn detail on; the invariant rules that need
   per-answer events simply never fire without it. *)
let detail_on = ref false
let detail () = !on && !detail_on
let capacity = ref default_capacity
let seq_counter = Atomic.make 0
let flow_counter = Atomic.make 0
let epoch = Atomic.make 0
let reg_m = Mutex.create ()
let rings : ring list ref = ref []
let dump_path : string option ref = ref None
let stall_threshold_ns = ref 250_000_000

let set_dump_target p = dump_path := p
let dump_target () = !dump_path
let new_flow () = Atomic.fetch_and_add flow_counter 1

(* The ring is found through domain-local storage, validated against the
   recorder epoch: [clear] bumps the epoch, so a long-lived domain (the
   main one) re-registers a fresh ring instead of resurrecting a discarded
   one. *)
let ring_key : (int * ring) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  let ep = Atomic.get epoch in
  match !cell with
  | Some (e, r) when e = ep -> r
  | _ ->
    let r =
      {
        r_domain = (Domain.self () :> int);
        buf = Array.make (max 8 !capacity) None;
        written = Atomic.make 0;
      }
    in
    Mutex.lock reg_m;
    rings := r :: !rings;
    Mutex.unlock reg_m;
    cell := Some (ep, r);
    r

let ring_events r =
  let w = Atomic.get r.written in
  let cap = Array.length r.buf in
  let n = min w cap in
  let lo = w - n in
  List.filter_map (fun i -> r.buf.((lo + i) mod cap)) (List.init n Fun.id)

let registered () =
  Mutex.lock reg_m;
  let rs = !rings in
  Mutex.unlock reg_m;
  rs

let events () =
  List.sort
    (fun a b -> compare (a.seq, a.ts_ns) (b.seq, b.ts_ns))
    (List.concat_map ring_events (registered ()))

let stats () =
  let dropped =
    List.fold_left
      (fun acc r -> acc + max 0 (Atomic.get r.written - Array.length r.buf))
      0 (registered ())
  in
  (Atomic.get seq_counter, dropped)

(* The recorder's retained footprint for memory accounting: per ring slot,
   the array cell, the [Some] box, the event record and a flat estimate of
   its payload (span names and categories are shared literals; args lists
   are short).  Deliberately coarse: the rings are fixed-capacity, so one
   charge at query open covers them.  Rings register lazily, so before any
   domain recorded this counts the one ring the opening domain is about to
   fill. *)
let approx_bytes () =
  let per_event_words = 12 in
  max 1 (List.length (registered ())) * !capacity * per_event_words * (Sys.word_size / 8)

(* --- codec (versioned, strict decode; lib/obs/jsonl.ml) ----------------- *)

let input_json i = Json.List [ Json.Int i.i_shard; Json.Int i.i_last; Json.Int i.i_state ]

let args_json args =
  Json.Obj (List.map (fun (k, v) -> (k, match v with Str s -> Json.String s | Num n -> Json.Int n)) args)

let to_json ev =
  let base =
    [
      ("v", Json.Int schema_version);
      ("seq", Json.Int ev.seq);
      ("ts_ns", Json.Int ev.ts_ns);
      ("dom", Json.Int ev.domain);
      ("flow", Json.Int ev.flow);
      ("shard", Json.Int ev.shard);
      ("ev", Json.String (kind_tag ev.kind));
    ]
  in
  let extra =
    match ev.kind with
    | Flow_open { shards; slack; label } ->
      [ ("shards", Json.Int shards); ("slack", Json.Int slack); ("label", Json.String label) ]
    | Shard_start | Unpark | Stop -> []
    | Deliver { dist } -> [ ("dist", Json.Int dist) ]
    | Park { qlen } -> [ ("qlen", Json.Int qlen) ]
    | Heartbeat { qlen; last } -> [ ("qlen", Json.Int qlen); ("last", Json.Int last) ]
    | Shard_done { complete; answers } ->
      [ ("complete", Json.Bool complete); ("answers", Json.Int answers) ]
    | Seal { bound; batch; inputs } ->
      [
        ("bound", Json.Int bound);
        ("batch", Json.Int batch);
        ("inputs", Json.List (List.map input_json inputs));
      ]
    | Emit { dist; x; y } -> [ ("dist", Json.Int dist); ("x", Json.Int x); ("y", Json.Int y) ]
    | Stall { silent_ns } -> [ ("silent_ns", Json.Int silent_ns) ]
    | Trip { reason; tuples; answers } ->
      [ ("reason", Json.String reason); ("tuples", Json.Int tuples); ("answers", Json.Int answers) ]
    | Span { ph; name; cat; args } ->
      [
        ("ph", Json.String (phase_letter ph));
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("args", args_json args);
      ]
      @ (match ph with Complete d -> [ ("dur_ns", Json.Int d) ] | _ -> [])
  in
  Json.Obj (base @ extra)

let ( let* ) = Result.bind

let input_of_json = function
  | Json.List [ Json.Int i_shard; Json.Int i_last; Json.Int i_state ] -> Ok { i_shard; i_last; i_state }
  | _ -> Error "field \"inputs\": expected [shard, last, state] triples"

let arg_of_json = function
  | k, Json.String s -> Ok (k, Str s)
  | k, Json.Int n -> Ok (k, Num n)
  | k, _ -> Error (Printf.sprintf "field \"args\".%S: expected string or int" k)

let args_field j =
  let* v = Jsonl.field "args" j in
  match v with
  | Json.Obj kvs -> Jsonl.map_list arg_of_json kvs
  | _ -> Error "field \"args\": expected object"

let kind_of_json tag j =
  let open Jsonl in
  match tag with
  | "flow_open" ->
    let* shards = int_field "shards" j in
    let* slack = int_field "slack" j in
    let* label = str_field "label" j in
    Ok (Flow_open { shards; slack; label })
  | "shard_start" -> Ok Shard_start
  | "deliver" ->
    let* dist = int_field "dist" j in
    Ok (Deliver { dist })
  | "park" ->
    let* qlen = int_field "qlen" j in
    Ok (Park { qlen })
  | "unpark" -> Ok Unpark
  | "heartbeat" ->
    let* qlen = int_field "qlen" j in
    let* last = int_field "last" j in
    Ok (Heartbeat { qlen; last })
  | "shard_done" ->
    let* complete = bool_field "complete" j in
    let* answers = int_field "answers" j in
    Ok (Shard_done { complete; answers })
  | "seal" ->
    let* bound = int_field "bound" j in
    let* batch = int_field "batch" j in
    let* inputs = list_field "inputs" j in
    let* inputs = map_list input_of_json inputs in
    Ok (Seal { bound; batch; inputs })
  | "emit" ->
    let* dist = int_field "dist" j in
    let* x = int_field "x" j in
    let* y = int_field "y" j in
    Ok (Emit { dist; x; y })
  | "stall" ->
    let* silent_ns = int_field "silent_ns" j in
    Ok (Stall { silent_ns })
  | "stop" -> Ok Stop
  | "trip" ->
    let* reason = str_field "reason" j in
    (* v1 trips carry only the reason *)
    let* tuples = optional int_field "tuples" j in
    let* answers = optional int_field "answers" j in
    Ok (Trip { reason; tuples = Option.value tuples ~default:0; answers = Option.value answers ~default:0 })
  | "span" ->
    let* ph = str_field "ph" j in
    let* ph =
      match ph with
      | "B" -> Ok Begin
      | "E" -> Ok End
      | "i" -> Ok Instant
      | "M" -> Ok Meta
      | "X" -> Result.map (fun d -> Complete d) (int_field "dur_ns" j)
      | p -> Error (Printf.sprintf "unknown span phase %S" p)
    in
    let* name = str_field "name" j in
    let* cat = str_field "cat" j in
    let* args = args_field j in
    Ok (Span { ph; name; cat; args })
  | t -> Error (Printf.sprintf "unknown event tag %S" t)

(* v2 added the span kinds and the trip's work counts; v1 dumps (the
   committed fixtures among them) still load. *)
let of_json j =
  let open Jsonl in
  let* v = int_field "v" j in
  if v < 1 || v > schema_version then
    Error (Printf.sprintf "schema version %d (expected 1..%d)" v schema_version)
  else
    let* seq = int_field "seq" j in
    let* ts_ns = int_field "ts_ns" j in
    let* domain = int_field "dom" j in
    let* flow = int_field "flow" j in
    let* shard = int_field "shard" j in
    let* tag = str_field "ev" j in
    let* kind = kind_of_json tag j in
    Ok { seq; ts_ns; domain; flow; shard; kind }

(* --- the shared invariant checker --------------------------------------

   One state machine, stepped event by event, used both by the online
   monitor (as events are recorded) and by Replay (over a loaded dump).
   The invariants are the sealed-merge correctness argument of
   lib/core/par.ml made executable:

   - shard-regression: a shard's deliveries are non-decreasing up to slack
     (dist >= last - slack);
   - seal-regression: the seal bound never decreases;
   - seal-overrun: a seal bound never exceeds the safe bound
     min over live-or-tripped shards of (last - slack) — a shard that
     finished *without* completing its work (trip, stop, crash) keeps its
     term in the min forever, because its undelivered answers could land
     anywhere at or above it;
   - late-delivery: no delivery lands below an already-sealed bound
     (a sealed bucket is complete);
   - emit-unsealed: every emitted answer's bucket is below the sealed
     bound (together with seal monotonicity this is "every bucket is
     sealed exactly once, and emitted only from sealed buckets");
   - emit-order: emits are non-decreasing in the canonical (dist, x, y)
     order. *)

module Check = struct
  type shard_state = { mutable c_last : int; mutable c_phase : int }
  (* c_phase: 0 live, 1 done-complete, 2 done-incomplete *)

  type flow_state = {
    mutable f_slack : int;
    f_shards : (int, shard_state) Hashtbl.t;
    mutable f_sealed : int; (* highest sealed bound; min_int before any seal *)
    mutable f_stopped : bool;
    mutable f_emit : (int * int * int) option;
  }

  type state = (int, flow_state) Hashtbl.t

  let init () : state = Hashtbl.create 4

  let flow st f =
    match Hashtbl.find_opt st f with
    | Some fs -> fs
    | None ->
      let fs =
        { f_slack = 0; f_shards = Hashtbl.create 8; f_sealed = min_int; f_stopped = false; f_emit = None }
      in
      Hashtbl.add st f fs;
      fs

  let shard fs i =
    match Hashtbl.find_opt fs.f_shards i with
    | Some ss -> ss
    | None ->
      let ss = { c_last = -1; c_phase = 0 } in
      Hashtbl.add fs.f_shards i ss;
      ss

  let safe_bound fs =
    Hashtbl.fold
      (fun _ ss acc -> if ss.c_phase = 1 then acc else min acc (ss.c_last - fs.f_slack))
      fs.f_shards max_int

  (* step returns [Some (rule, detail)] on the first violated invariant. *)
  let step (st : state) (ev : event) : (string * string) option =
    if ev.flow < 0 then None
    else
      let fs = flow st ev.flow in
      match ev.kind with
      | Flow_open { shards; slack; _ } ->
        fs.f_slack <- max 0 slack;
        for i = 0 to shards - 1 do
          ignore (shard fs i)
        done;
        None
      | Deliver { dist } ->
        let ss = shard fs ev.shard in
        if dist < fs.f_sealed then
          Some
            ( "late-delivery",
              Printf.sprintf "shard %d delivered dist=%d below the sealed bound %d" ev.shard dist
                fs.f_sealed )
        else if dist < ss.c_last - fs.f_slack then
          Some
            ( "shard-regression",
              Printf.sprintf "shard %d delivered dist=%d < last(%d) - slack(%d)" ev.shard dist
                ss.c_last fs.f_slack )
        else begin
          if dist > ss.c_last then ss.c_last <- dist;
          None
        end
      | Shard_done { complete; _ } ->
        (shard fs ev.shard).c_phase <- (if complete then 1 else 2);
        None
      | Seal { bound; inputs; _ } ->
        (* The recorded inputs are authoritative for shard frontiers: at
           the default recording level per-answer delivers are not logged,
           so the bound can only be validated against what the sealer
           claims it saw — and the claims themselves are raw shard fields,
           recorded before the bound rule touches them.  A buggy rule
           (e.g. dropping tripped shards from the min) therefore still
           contradicts its own inputs. *)
        List.iter
          (fun { i_shard; i_last; i_state } ->
            let ss = shard fs i_shard in
            if i_last > ss.c_last then ss.c_last <- i_last;
            if i_state <> 0 then ss.c_phase <- i_state)
          inputs;
        if bound < fs.f_sealed then
          Some
            ( "seal-regression",
              Printf.sprintf "seal bound %d regressed below the previous bound %d" bound fs.f_sealed
            )
        else
          let safe = safe_bound fs in
          if bound > safe then
            Some
              ( "seal-overrun",
                Printf.sprintf
                  "seal bound %s exceeds the safe bound %s: a live or tripped shard could still \
                   deliver below it"
                  (if bound = max_int then "inf" else string_of_int bound)
                  (if safe = max_int then "inf" else string_of_int safe) )
          else begin
            fs.f_sealed <- bound;
            None
          end
      | Emit { dist; x; y } ->
        if dist >= fs.f_sealed then
          Some
            ( "emit-unsealed",
              Printf.sprintf "emitted dist=%d at or above the sealed bound %s" dist
                (if fs.f_sealed = min_int then "-inf" else string_of_int fs.f_sealed) )
        else (
          match fs.f_emit with
          | Some prev when compare (dist, x, y) prev < 0 ->
            let pd, px, py = prev in
            Some
              ( "emit-order",
                Printf.sprintf "emit (%d,%d,%d) after (%d,%d,%d) breaks the canonical order" dist x
                  y pd px py )
          | _ ->
            fs.f_emit <- Some (dist, x, y);
            None)
      | Stop ->
        fs.f_stopped <- true;
        None
      | Shard_start | Park _ | Unpark | Heartbeat _ | Stall _ | Trip _ | Span _ -> None
end

(* --- violations --------------------------------------------------------- *)

type violation = {
  v_seq : int;
  v_flow : int;
  v_rule : string;
  v_detail : string;
  v_window : event list; (* the trailing events up to and including the offender *)
}

exception Violation of violation

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>%s at seq %d (flow %d): %s@,window:@,%a@]" v.v_rule v.v_seq v.v_flow
    v.v_detail
    (Format.pp_print_list pp_event)
    v.v_window

let window_size = 16

let window_around ~seq evs =
  List.filter (fun e -> e.seq <= seq && e.seq > seq - window_size && not (is_span e.kind)) evs

(* --- dumps -------------------------------------------------------------- *)

(* One line per event, oldest first, preceded by a meta line carrying the
   recorder totals.  Each line is complete before the next begins and the
   channel is flushed before closing, so a crash while dumping truncates at
   most the trailing line. *)
let meta_json ~recorded ~dropped =
  Json.Obj
    [
      ("v", Json.Int schema_version);
      ("meta", Json.Bool true);
      ("recorded", Json.Int recorded);
      ("dropped", Json.Int dropped);
    ]

let dump path =
  let evs = events () in
  let recorded, dropped = stats () in
  let oc = open_out_gen [ Open_creat; Open_trunc; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Jsonl.write_line oc (meta_json ~recorded ~dropped);
      List.iter (fun ev -> Jsonl.write_line oc (to_json ev)) evs;
      flush oc);
  List.length evs

(* --- the online monitor ------------------------------------------------- *)

module Monitor = struct
  let mon_on = ref false
  let mon_m = Mutex.create ()
  let state = ref (Check.init ())
  let first : violation option ref = ref None
  let last_dump : string option ref = ref None

  let enabled () = !mon_on

  let reset () =
    Mutex.lock mon_m;
    state := Check.init ();
    first := None;
    last_dump := None;
    Mutex.unlock mon_m

  let enable () =
    reset ();
    mon_on := true

  let disable () = mon_on := false

  (* Called from [record] with the event already published to its ring, so
     the violation window can include the offender.  The first violation
     wins and triggers an automatic dump (to the configured target, or a
     fresh temp file) — the postmortem survives even if the process dies
     before anyone calls [assert_ok]. *)
  let step ev =
    Mutex.lock mon_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mon_m)
      (fun () ->
        match Check.step !state ev with
        | None -> ()
        | Some (rule, detail) ->
          if !first = None then begin
            let v =
              {
                v_seq = ev.seq;
                v_flow = ev.flow;
                v_rule = rule;
                v_detail = detail;
                v_window = window_around ~seq:ev.seq (events ());
              }
            in
            first := Some v;
            let path =
              match !dump_path with
              | Some p -> p
              | None -> Filename.temp_file "omega-flight-violation" ".jsonl"
            in
            (try
               ignore (dump path);
               last_dump := Some path
             with Sys_error _ -> ())
          end)

  let first_violation () = !first
  let last_dump_path () = !last_dump

  let assert_ok () =
    match !first with None -> () | Some v -> raise (Violation v)
end

(* --- recording ---------------------------------------------------------- *)

(* The hot-path contract: when the recorder is off this is one load and a
   branch; call sites guard with [enabled ()] so even the event payload is
   never allocated.  When on, recording is lock-free for the writer: a
   global sequence fetch-and-add, a clock read, two plain stores into the
   domain's own ring and one atomic publish.  Only flow events can break an
   invariant, so only they reach the monitor. *)
let push ~ts_ns ~flow ~shard kind =
  let r = my_ring () in
  let seq = Atomic.fetch_and_add seq_counter 1 in
  let ev = { seq; ts_ns; domain = r.r_domain; flow; shard; kind } in
  let w = Atomic.get r.written in
  r.buf.(w mod Array.length r.buf) <- Some ev;
  Atomic.set r.written (w + 1);
  if !Monitor.mon_on && flow >= 0 then Monitor.step ev

let record ?(flow = -1) ?(shard = -1) kind =
  if !on then push ~ts_ns:(!Clock.now_ns ()) ~flow ~shard kind

(* --- spans -------------------------------------------------------------- *)

(* The timeline events behind the Chrome trace export ({!Trace}): process
   level (flow and shard -1), recorded at batch/window granularity so the
   [Succ] hot path never reaches them. *)

let span ?(ts_ns = !Clock.now_ns ()) ph cat args name =
  push ~ts_ns ~flow:(-1) ~shard:(-1) (Span { ph; name; cat; args })

let with_span ?(cat = "") ?(args = []) name f =
  if not !on then f ()
  else begin
    span Begin cat args name;
    (* the close is pushed even if the recorder was switched off inside
       [f]: a recorded span always nests *)
    Fun.protect ~finally:(fun () -> span End cat [] name) f
  end

let instant ?(cat = "") ?(args = []) name = if !on then span Instant cat args name

let complete ?(cat = "") ?(args = []) ~start_ns name =
  if !on then span ~ts_ns:start_ns (Complete (!Clock.now_ns () - start_ns)) cat args name

(* a real timestamp keeps the export's t0 rebase honest (viewers ignore ts
   on metadata events anyway) *)
let set_thread_name nm = if !on then span Meta "__metadata" [ ("name", Str nm) ] "thread_name"

(* [clear] discards every ring and resets the sequence and flow counters;
   only call it while no flow is in flight (rings of joined domains are
   dropped, live writers re-register fresh ones via the epoch bump). *)
let clear () =
  Atomic.incr epoch;
  Mutex.lock reg_m;
  rings := [];
  Mutex.unlock reg_m;
  Atomic.set seq_counter 0;
  Atomic.set flow_counter 0;
  if !Monitor.mon_on then Monitor.reset ()

let enable ?capacity:(cap = default_capacity) ?(detail = false) () =
  capacity := max 8 cap;
  clear ();
  detail_on := detail;
  on := true

let disable () = on := false

(* --- reading ------------------------------------------------------------ *)

type meta = { m_recorded : int; m_dropped : int }
type line = Meta of meta | Event of event

let line_of_json j =
  match Json.member "meta" j with
  | Some (Json.Bool true) ->
    let* m_recorded = Jsonl.int_field "recorded" j in
    let* m_dropped = Jsonl.int_field "dropped" j in
    if m_recorded < 0 || m_dropped < 0 then Error "meta header has negative recorded/dropped"
    else Ok (Meta { m_recorded; m_dropped })
  | _ -> Result.map (fun ev -> Event ev) (of_json j)

(* The strict shape of a dump, checked line by line: a meta header first
   and only first, then events in strictly increasing sequence order (the
   merged rings, as [dump] writes them). *)
let strict_line () =
  let last_seq = ref None (* None until the header *) in
  fun j ->
    let* l = line_of_json j in
    match (l, !last_seq) with
    | Meta _, None ->
      last_seq := Some (-1);
      Ok l
    | Meta _, Some _ -> Error "duplicate meta header"
    | Event _, None -> Error "not the meta header (crash-truncated dumps are not valid fixtures)"
    | Event ev, Some prev when ev.seq <= prev ->
      Error (Printf.sprintf "seq %d is not strictly increasing (previous %d)" ev.seq prev)
    | Event ev, Some _ ->
      last_seq := Some ev.seq;
      Ok l

let load ?(strict = false) path =
  let* lines, skipped = Jsonl.read ~strict (if strict then strict_line () else line_of_json) path in
  let meta = List.fold_left (fun m -> function Meta x -> Some x | Event _ -> m) None lines in
  let evs = List.filter_map (function Event ev -> Some ev | Meta _ -> None) lines in
  match meta with
  | None when strict -> Error (path ^ ": empty flight dump")
  | Some m when strict && m.m_recorded - m.m_dropped <> List.length evs ->
    (* every recorded event is either in its ring or counted as dropped *)
    Error
      (Printf.sprintf "%s: meta header claims %d recorded - %d dropped event(s) but the dump carries %d"
         path m.m_recorded m.m_dropped (List.length evs))
  | _ -> Ok (meta, evs, skipped)
