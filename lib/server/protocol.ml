module Json = Obs.Json

type op = Query | Ping | Sleep

type request = {
  id : Json.t;
  op : op;
  tenant : string;
  query : string;
  limit : int option;
  timeout_ms : int option;
  max_tuples : int option;
  max_states : int option;
  sleep_ms : int;
}

type error =
  | Request_too_large of int
  | Bad_json of string
  | Bad_request of string
  | Bad_query of string

let error_string = function
  | Request_too_large cap -> Printf.sprintf "request line longer than %d bytes" cap
  | Bad_json msg -> Printf.sprintf "request is not a JSON object: %s" msg
  | Bad_request msg -> msg
  | Bad_query msg -> Printf.sprintf "query error: %s" msg

let error_tag = function
  | Request_too_large _ -> "request-too-large"
  | Bad_json _ -> "bad-json"
  | Bad_request _ -> "bad-request"
  | Bad_query _ -> "bad-query"

(* --- request parsing --------------------------------------------------- *)

let ( let* ) = Result.bind

(* A wrong-typed or out-of-range field is a [Bad_request] carrying the
   request's id; every field but a query's text is optional. *)
let bad ~id r = Result.map_error (fun msg -> (id, Bad_request msg)) r
let opt_field ~id decode k j = bad ~id (Obs.Jsonl.optional decode k j)

let opt_int ~id k j =
  let* n = opt_field ~id Obs.Jsonl.int_field k j in
  match n with
  | Some n when n < 1 -> Error (id, Bad_request (Printf.sprintf "field %S must be >= 1" k))
  | n -> Ok n

let max_tenant_bytes = 64

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Json.Null, Bad_json msg)
  | Ok (Json.Obj _ as j) ->
    let id = Option.value ~default:Json.Null (Json.member "id" j) in
    let str k = opt_field ~id Obs.Jsonl.str_field k j in
    let* op = str "op" in
    let* op =
      match op with
      | None | Some "query" -> Ok Query
      | Some "ping" -> Ok Ping
      | Some "sleep" -> Ok Sleep
      | Some s -> Error (id, Bad_request (Printf.sprintf "unknown op %S" s))
    in
    let* tenant = str "tenant" in
    let* tenant =
      match tenant with
      | None -> Ok "anon"
      | Some t when t <> "" && String.length t <= max_tenant_bytes -> Ok t
      | Some _ ->
        Error (id, Bad_request (Printf.sprintf "field \"tenant\": expected 1..%d bytes" max_tenant_bytes))
    in
    let* query =
      match op with
      | Query -> bad ~id (Obs.Jsonl.str_field "query" j)
      | Ping | Sleep -> Ok ""
    in
    let* limit = opt_int ~id "limit" j in
    let* timeout_ms = opt_int ~id "timeout_ms" j in
    let* max_tuples = opt_int ~id "max_tuples" j in
    let* max_states = opt_int ~id "max_states" j in
    let* sleep_ms =
      match op with
      | Sleep -> (
        match opt_int ~id "ms" j with
        | Ok (Some n) when n <= 60_000 -> Ok n
        | Ok (Some _) -> Error (id, Bad_request "field \"ms\": at most 60000")
        | Ok None -> Ok 10
        | Error _ as e -> e)
      | Query | Ping -> Ok 0
    in
    Ok { id; op; tenant; query; limit; timeout_ms; max_tuples; max_states; sleep_ms }
  | Ok _ -> Error (Json.Null, Bad_json "top-level value is not an object")

(* --- responses --------------------------------------------------------- *)

let render = Json.to_string

let base ~id ~status ~code rest = Json.Obj (("id", id) :: ("status", Json.String status) :: ("code", Json.Int code) :: rest)

let resp_error ~id err =
  base ~id ~status:"error" ~code:2
    [ ("error", Json.String (error_string err)); ("error_kind", Json.String (error_tag err)) ]

let resp_crash ~id msg =
  base ~id ~status:"error" ~code:1 [ ("error", Json.String msg); ("error_kind", Json.String "crash") ]

let resp_shed ~id ~tenant ~retry_after_ms ~draining =
  base ~id ~status:"shed" ~code:7
    [
      ("tenant", Json.String tenant);
      ("reason", Json.String (if draining then "draining" else "overload"));
      ("retry_after_ms", Json.Int retry_after_ms);
    ]

let resp_pong ~id = base ~id ~status:"ok" ~code:0 [ ("pong", Json.Bool true) ]

let resp_slept ~id ~tenant ~slept_ms ~cut =
  match cut with
  | None ->
    base ~id ~status:"ok" ~code:0 [ ("tenant", Json.String tenant); ("slept_ms", Json.Int slept_ms) ]
  | Some reason ->
    base ~id ~status:"partial" ~code:5
      [
        ("tenant", Json.String tenant);
        ("slept_ms", Json.Int slept_ms);
        ("reason", Json.String reason);
      ]

let answers_json (answers : Core.Engine.answer list) =
  Json.List
    (List.map
       (fun (a : Core.Engine.answer) ->
         Json.Obj
           [
             ("bindings", Json.Obj (List.map (fun (v, x) -> (v, Json.String x)) a.bindings));
             ("distance", Json.Int a.distance);
           ])
       answers)

let resp_outcome ~id ~tenant ~query_class (outcome : Core.Engine.outcome) =
  let status, code, reason =
    match outcome.Core.Engine.termination with
    | Core.Engine.Completed -> ("ok", 0, None)
    | Core.Engine.Exhausted { reason; _ } -> (
      let rs = Core.Governor.reason_string reason in
      match reason with
      | Core.Governor.Answer_limit -> ("ok", 0, Some rs)
      | Core.Governor.Deadline -> ("partial", 3, Some rs)
      | Core.Governor.Tuple_budget | Core.Governor.Memory_budget -> ("partial", 4, Some rs)
      | Core.Governor.Fault _ -> ("partial", 5, Some rs))
    | Core.Engine.Rejected r -> ("rejected", 6, Some (Core.Admission.rejection_string r))
  in
  base ~id ~status ~code
    [
      ("tenant", Json.String tenant);
      ("class", Json.String query_class);
      ("count", Json.Int (List.length outcome.Core.Engine.answers));
      ("answers", answers_json outcome.Core.Engine.answers);
      ("reason", (match reason with None -> Json.Null | Some r -> Json.String r));
    ]

let response_code j = Option.bind (Json.member "code" j) Json.to_int
