let us ns = Json.Float (float_of_int ns /. 1e3)

let args_json = function [] -> [] | args -> [ ("args", Flight.args_json args) ]

(* The Chrome phase, name, category and extra fields of a timeline event;
   flow events are the replay's business, not the timeline's. *)
let chrome (e : Flight.event) =
  let instant = ("s", Json.String "t") in
  match e.kind with
  | Span { ph; name; cat; args } ->
    let extra = match ph with Instant -> [ instant ] | Complete d -> [ ("dur", us d) ] | _ -> [] in
    Some (Flight.phase_letter ph, name, cat, extra @ args_json args)
  | Trip { reason; tuples; answers } ->
    Some
      ( "i",
        "governor.trip",
        "governor",
        instant :: args_json [ ("reason", Str reason); ("tuples", Num tuples); ("answers", Num answers) ] )
  | _ -> None

let to_json ?(extra = []) () =
  let evs = List.filter_map (fun e -> Option.map (fun c -> (e, c)) (chrome e)) (Flight.events ()) in
  let _, dropped = Flight.stats () in
  (* Timestamps are rebased to the earliest exported event: an epoch-based
     wall clock would otherwise put every event ~10^15 µs from the origin,
     which viewers render poorly and floats print imprecisely. *)
  let t0 = List.fold_left (fun acc ((e : Flight.event), _) -> min acc e.ts_ns) max_int evs in
  let t0 = if t0 = max_int then 0 else t0 in
  let event ((e : Flight.event), (ph, name, cat, fields)) =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String (if cat = "" then "omega" else cat));
         ("ph", Json.String ph);
         ("ts", us (e.ts_ns - t0));
         ("pid", Json.Int 1);
         ("tid", Json.Int (e.domain + 1));
       ]
      @ fields)
  in
  Json.Obj
    ([
       ("traceEvents", Json.List (List.map event evs));
       ("displayTimeUnit", Json.String "ms");
       (* ring truncation is part of the export: a consumer (or
          bench/validate) can tell a complete trace from a clipped one *)
       ("dropped", Json.Int dropped);
     ]
    @ extra)

let export ?extra path =
  let doc = to_json ?extra () in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Json.to_channel oc doc);
  match Json.member "traceEvents" doc with Some (Json.List l) -> List.length l | _ -> 0
