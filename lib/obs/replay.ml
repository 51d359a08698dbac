(* Offline postmortem for a flight dump: reload the events, reconstruct
   the interleaving (the dump is already merged by sequence number, but a
   hand-edited or concatenated file may not be), re-run the full invariant
   set through Flight.Check, and localise the first violating event. *)

type stall = { st_flow : int; st_shard : int; st_silent_ns : int }

type t = {
  path : string;
  meta : Flight.meta option;
  events : Flight.event list; (* merged by (seq, ts) *)
  skipped : int;
  domains : int list;
  flows : int list;
  kinds : (string * int) list; (* tag -> count, in all_tags order, zeroes elided *)
  seq_gaps : int; (* missing sequence numbers: ring-wraparound losses *)
  stalls : stall list; (* offline watchdog: largest inter-event silence per shard *)
  violation : Flight.violation option;
}

let sort_events evs =
  List.sort (fun (a : Flight.event) b -> compare (a.seq, a.ts_ns) (b.seq, b.ts_ns)) evs

let recheck evs =
  let st = Flight.Check.init () in
  let rec go = function
    | [] -> None
    | (ev : Flight.event) :: rest -> (
      match Flight.Check.step st ev with
      | None -> go rest
      | Some (rule, detail) ->
        Some
          {
            Flight.v_seq = ev.seq;
            v_flow = ev.flow;
            v_rule = rule;
            v_detail = detail;
            v_window = Flight.window_around ~seq:ev.seq evs;
          })
  in
  go evs

let seq_gaps evs =
  let rec go acc = function
    | (a : Flight.event) :: (b : Flight.event) :: rest ->
      go (acc + max 0 (b.seq - a.seq - 1)) (b :: rest)
    | _ -> acc
  in
  go 0 evs

(* The offline stall watchdog: for each (flow, shard) worker, the largest
   gap between consecutive timestamped events.  Only meaningful when the
   dump was recorded with a clock installed; a clockless dump has ts 0
   everywhere and reports nothing. *)
let find_stalls ~threshold_ns evs =
  let last : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let worst : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Flight.event) ->
      if ev.flow >= 0 && ev.shard >= 0 && ev.ts_ns > 0 then begin
        let k = (ev.flow, ev.shard) in
        (match Hashtbl.find_opt last k with
        | Some prev when ev.ts_ns - prev > Option.value ~default:0 (Hashtbl.find_opt worst k) ->
          Hashtbl.replace worst k (ev.ts_ns - prev)
        | _ -> ());
        Hashtbl.replace last k ev.ts_ns
      end)
    evs;
  Hashtbl.fold
    (fun (st_flow, st_shard) st_silent_ns acc ->
      if st_silent_ns > threshold_ns then { st_flow; st_shard; st_silent_ns } :: acc else acc)
    worst []
  |> List.sort compare

let kind_counts evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Flight.event) ->
      let t = Flight.kind_tag ev.kind in
      Hashtbl.replace tbl t (1 + Option.value ~default:0 (Hashtbl.find_opt tbl t)))
    evs;
  List.filter_map
    (fun t -> Option.map (fun n -> (t, n)) (Hashtbl.find_opt tbl t))
    Flight.all_tags

let wrapped = function Some m -> m.Flight.m_dropped > 0 | None -> false

(* A wrapped dump lost the oldest events of each ring, so a flow whose
   [flow_open] is gone has no known sealed bound: its checking starts at
   its first retained seal (seals and emits share the consumer's ring, so
   every later one is retained too).  Lost deliveries only lower the
   shard frontiers the checker knows, which cannot fake a violation. *)
let checkable ~wrapped evs =
  let known = Hashtbl.create 4 in
  List.filter
    (fun (e : Flight.event) ->
      (not wrapped) || e.flow < 0 || Hashtbl.mem known e.flow
      ||
      match e.kind with
      | Flow_open _ | Seal _ ->
        Hashtbl.replace known e.flow ();
        true
      | _ -> false)
    evs

(* Spans are the timeline's, not the merge's: [events] and the sequence
   gaps cover the whole dump, everything else the flow events alone. *)
let of_events ?(stall_ns = !Flight.stall_threshold_ns) ~path ~meta ~skipped evs =
  let all = sort_events evs in
  let evs = List.filter (fun (e : Flight.event) -> not (Flight.is_span e.kind)) all in
  {
    path;
    meta;
    events = all;
    skipped;
    domains = List.sort_uniq compare (List.map (fun (e : Flight.event) -> e.domain) evs);
    flows =
      List.sort_uniq compare
        (List.filter_map (fun (e : Flight.event) -> if e.flow >= 0 then Some e.flow else None) evs);
    kinds = kind_counts evs;
    seq_gaps = seq_gaps all;
    stalls = find_stalls ~threshold_ns:stall_ns evs;
    violation = recheck (checkable ~wrapped:(wrapped meta) evs);
  }

let load ?stall_ns path =
  match Flight.load path with
  | Error e -> Error e
  | Ok (meta, evs, skipped) -> Ok (of_events ?stall_ns ~path ~meta ~skipped evs)

let ok t = t.violation = None

(* --- text ---------------------------------------------------------------- *)

let pp ppf t =
  Format.fprintf ppf "flight: %s@." t.path;
  let recorded, dropped =
    match t.meta with Some m -> (m.Flight.m_recorded, m.Flight.m_dropped) | None -> (-1, -1)
  in
  if recorded >= 0 then
    Format.fprintf ppf "  events=%d recorded=%d dropped=%d skipped_lines=%d@."
      (List.length t.events) recorded dropped t.skipped
  else
    Format.fprintf ppf "  events=%d (no meta line) skipped_lines=%d@." (List.length t.events)
      t.skipped;
  Format.fprintf ppf "  domains=%d flows=%d seq_gaps=%d@." (List.length t.domains)
    (List.length t.flows) t.seq_gaps;
  Format.fprintf ppf "  events by kind:";
  List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) t.kinds;
  Format.fprintf ppf "@.";
  (match t.stalls with
  | [] -> Format.fprintf ppf "  stalls: none@."
  | ss ->
    Format.fprintf ppf "  stalls:@.";
    List.iter
      (fun s ->
        Format.fprintf ppf "    flow %d shard %d silent for %dns@." s.st_flow s.st_shard
          s.st_silent_ns)
      ss);
  match t.violation with
  | None when wrapped t.meta -> Format.fprintf ppf "  invariants: OK (wrapped: each flow checked from its first retained seal)@."
  | None -> Format.fprintf ppf "  invariants: OK@."
  | Some v ->
    Format.fprintf ppf "  invariants: VIOLATION %s at seq %d (flow %d)@.    %s@." v.Flight.v_rule
      v.Flight.v_seq v.Flight.v_flow v.Flight.v_detail;
    Format.fprintf ppf "  window:@.";
    List.iter (fun ev -> Format.fprintf ppf "    %a@." Flight.pp_event ev) v.Flight.v_window

(* --- json ----------------------------------------------------------------- *)

let to_json t =
  Json.Obj
    [
      ("path", Json.String t.path);
      ("events", Json.Int (List.length t.events));
      ( "recorded",
        match t.meta with Some m -> Json.Int m.Flight.m_recorded | None -> Json.Null );
      ("dropped", match t.meta with Some m -> Json.Int m.Flight.m_dropped | None -> Json.Null);
      ("skipped_lines", Json.Int t.skipped);
      ("domains", Json.Int (List.length t.domains));
      ("flows", Json.Int (List.length t.flows));
      ("seq_gaps", Json.Int t.seq_gaps);
      ("kinds", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) t.kinds));
      ( "stalls",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("flow", Json.Int s.st_flow);
                   ("shard", Json.Int s.st_shard);
                   ("silent_ns", Json.Int s.st_silent_ns);
                 ])
             t.stalls) );
      ( "violation",
        match t.violation with
        | None -> Json.Null
        | Some v ->
          Json.Obj
            [
              ("rule", Json.String v.Flight.v_rule);
              ("seq", Json.Int v.Flight.v_seq);
              ("flow", Json.Int v.Flight.v_flow);
              ("detail", Json.String v.Flight.v_detail);
              ("window", Json.List (List.map Flight.to_json v.Flight.v_window));
            ] );
    ]
