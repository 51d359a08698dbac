let schema_version = 3
let env_var = "OMEGA_AUDIT"

type shard = { s_index : int; s_busy_ns : int; s_answers : int }

type flight_info = { f_path : string; f_events : int; f_dropped : int }

type record = {
  ts_ns : int;
  query_hash : string;
  query : string;
  query_class : string;
  plan : string;
  termination : string;
  reason : string option;
  answers : int;
  wall_ns : int;
  cpu_ns : int;
  est_states : int;
  est_product : int;
  actual_tuples : int;
  domains : int;
  shards : shard list;
  merge_wait_ns : int;
  imbalance_pct : int;
  flight : flight_info option; (* set when the flight recorder dumped alongside *)
  tenant : string option; (* v3: the serving tenant (omega_serve); None standalone *)
  stats : (string * int) list;
  gc : (string * int) list;
}

(* FNV-1a, 64-bit.  Int64 arithmetic keeps the hash identical on 32- and
   63-bit native ints, so logs from different builds aggregate together. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

let assoc_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l)

let shard_json s =
  Json.Obj
    [ ("i", Json.Int s.s_index); ("busy_ns", Json.Int s.s_busy_ns); ("answers", Json.Int s.s_answers) ]

let to_json r =
  Json.Obj
    [
      ("v", Json.Int schema_version);
      ("ts_ns", Json.Int r.ts_ns);
      ("query_hash", Json.String r.query_hash);
      ("query", Json.String r.query);
      ("class", Json.String r.query_class);
      ("plan", Json.String r.plan);
      ("termination", Json.String r.termination);
      ("reason", (match r.reason with None -> Json.Null | Some s -> Json.String s));
      ("answers", Json.Int r.answers);
      ("wall_ns", Json.Int r.wall_ns);
      ("cpu_ns", Json.Int r.cpu_ns);
      ("est_states", Json.Int r.est_states);
      ("est_product", Json.Int r.est_product);
      ("actual_tuples", Json.Int r.actual_tuples);
      ("domains", Json.Int r.domains);
      ("shards", Json.List (List.map shard_json r.shards));
      ("merge_wait_ns", Json.Int r.merge_wait_ns);
      ("imbalance_pct", Json.Int r.imbalance_pct);
      ( "flight",
        match r.flight with
        | None -> Json.Null
        | Some f ->
          Json.Obj
            [
              ("path", Json.String f.f_path);
              ("events", Json.Int f.f_events);
              ("dropped", Json.Int f.f_dropped);
            ] );
      ("tenant", (match r.tenant with None -> Json.Null | Some t -> Json.String t));
      ("stats", assoc_json r.stats);
      ("gc", assoc_json r.gc);
    ]

(* --- decoding / validation ------------------------------------------- *)

let ( let* ) = Result.bind

open Jsonl

let assoc_field k j =
  let* v = field k j in
  match v with
  | Json.Obj kvs ->
    map_list
      (fun (key, v) ->
        match Json.to_int v with
        | Some n -> Ok (key, n)
        | None -> Error (Printf.sprintf "field %S.%S: expected int" k key))
      kvs
  | _ -> Error (Printf.sprintf "field %S: expected object" k)

let shard_of_json j =
  let* s_index = int_field "i" j in
  let* s_busy_ns = int_field "busy_ns" j in
  let* s_answers = int_field "answers" j in
  Ok { s_index; s_busy_ns; s_answers }

let shards_field k j =
  let* l = list_field k j in
  map_list shard_of_json l

let flight_field =
  nullable (fun k j ->
      let* v = field k j in
      let* f_path = str_field "path" v in
      let* f_events = int_field "events" v in
      let* f_dropped = int_field "dropped" v in
      Ok { f_path; f_events; f_dropped })

let of_json j =
  let* v = int_field "v" j in
  (* older records stay loadable: v1 (pre-flight) reads [flight] as None,
     v2 (pre-server) reads [tenant] as None *)
  if v < 1 || v > schema_version then
    Error (Printf.sprintf "schema version %d (expected 1..%d)" v schema_version)
  else
    let* ts_ns = int_field "ts_ns" j in
    let* query_hash = str_field "query_hash" j in
    let* query = str_field "query" j in
    let* query_class = str_field "class" j in
    let* plan = str_field "plan" j in
    let* termination = str_field "termination" j in
    let* reason = nullable str_field "reason" j in
    let* answers = int_field "answers" j in
    let* wall_ns = int_field "wall_ns" j in
    let* cpu_ns = int_field "cpu_ns" j in
    let* est_states = int_field "est_states" j in
    let* est_product = int_field "est_product" j in
    let* actual_tuples = int_field "actual_tuples" j in
    let* domains = int_field "domains" j in
    let* shards = shards_field "shards" j in
    let* merge_wait_ns = int_field "merge_wait_ns" j in
    let* imbalance_pct = int_field "imbalance_pct" j in
    let* flight = if v = 1 then Ok None else flight_field "flight" j in
    let* tenant = if v < 3 then Ok None else nullable str_field "tenant" j in
    let* stats = assoc_field "stats" j in
    let* gc = assoc_field "gc" j in
    Ok
      {
        ts_ns;
        query_hash;
        query;
        query_class;
        plan;
        termination;
        reason;
        answers;
        wall_ns;
        cpu_ns;
        est_states;
        est_product;
        actual_tuples;
        domains;
        shards;
        merge_wait_ns;
        imbalance_pct;
        flight;
        tenant;
        stats;
        gc;
      }

let validate j = Result.map (fun (_ : record) -> ()) (of_json j)

(* --- sinks ------------------------------------------------------------ *)

type sink = { oc : out_channel; sm : Mutex.t }

let open_sink path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  { oc; sm = Mutex.create () }

let write sink r =
  (* One complete line + flush per record: a crash mid-write truncates at
     most this record, never an earlier one. *)
  Mutex.lock sink.sm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.sm)
    (fun () ->
      Jsonl.write_line sink.oc (to_json r);
      flush sink.oc)

let close_sink sink = close_out sink.oc

(* --- the process-global sink ----------------------------------------- *)

(* Mirrors Flight's discipline: [on] is a plain ref read without the lock so
   the per-query check in Engine.close stays one load.  All sink swaps
   (enable / disable / SIGHUP reopen) and every emit serialise on [gm], so
   a rotation can never close the channel out from under a concurrent
   writer — the daemon emits from many connection threads at once. *)
let global : (sink * string) option ref = ref None
let on = ref false
let gm = Mutex.create ()
let enabled () = !on

let with_gm f =
  Mutex.lock gm;
  Fun.protect ~finally:(fun () -> Mutex.unlock gm) f

let disable () =
  on := false;
  with_gm (fun () ->
      match !global with
      | None -> ()
      | Some (s, _) ->
        global := None;
        close_sink s)

let enable path =
  disable ();
  with_gm (fun () -> global := Some (open_sink path, path));
  on := true

let reopen () =
  with_gm (fun () ->
      match !global with
      | None -> ()
      | Some (s, path) ->
        (* close first: the rotated file's last record is already flushed, and
           reopening in append mode recreates the path if it was renamed away.
           Dropping [global] before the reopen means a failing reopen leaves
           the sink cleanly disabled, never pointing at a closed channel. *)
        close_sink s;
        global := None;
        global := Some (open_sink path, path))

let emit r = with_gm (fun () -> match !global with None -> () | Some (s, _) -> write s r)

(* --- reading ---------------------------------------------------------- *)

let load ?strict path = Jsonl.read ?strict of_json path
