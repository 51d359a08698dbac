type point =
  | Graph_scan
  | Seed_batch
  | Join_pull
  | Ontology_lookup
  | Srv_accept
  | Srv_read
  | Srv_write

exception Injected of string

let all_points = [ Graph_scan; Seed_batch; Join_pull; Ontology_lookup; Srv_accept; Srv_read; Srv_write ]

let point_name = function
  | Graph_scan -> "scan"
  | Seed_batch -> "seed"
  | Join_pull -> "join"
  | Ontology_lookup -> "onto"
  | Srv_accept -> "accept"
  | Srv_read -> "read"
  | Srv_write -> "write"

let point_of_name = function
  | "scan" -> Some Graph_scan
  | "seed" -> Some Seed_batch
  | "join" -> Some Join_pull
  | "onto" -> Some Ontology_lookup
  | "accept" -> Some Srv_accept
  | "read" -> Some Srv_read
  | "write" -> Some Srv_write
  | _ -> None

let index = function
  | Graph_scan -> 0
  | Seed_batch -> 1
  | Join_pull -> 2
  | Ontology_lookup -> 3
  | Srv_accept -> 4
  | Srv_read -> 5
  | Srv_write -> 6

let n_points = 7

(* Arming is process-global, but the PRNG state is {e per-domain}: a shared
   mutable stream would make two concurrent engine runs in one process
   corrupt each other's fault schedules.  The configuration lives in an
   [Atomic] paired with an epoch counter; every domain keeps its own
   {state; probabilities} cell in domain-local storage and re-syncs it
   when the epoch moves.  The initial domain derives its state from the
   seed exactly as the pre-parallel code did, so single-domain runs are
   byte-for-byte reproducible across versions; other domains fold their
   domain id into the seed, giving each an independent deterministic
   stream. *)
type armed = { seed : int; prob : float array }

let armed_cfg : armed option Atomic.t = Atomic.make None
let epoch : int Atomic.t = Atomic.make 0

type cell = { mutable ep : int; mutable state : int64; mutable prob : float array }

let no_prob : float array = [||]
let cell_key = Domain.DLS.new_key (fun () -> { ep = -1; state = 0L; prob = no_prob })

(* splitmix64: a tiny deterministic PRNG so a chaos run is reproducible from
   its seed alone, independently of any global Random state. *)
let remix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let base_state seed = Int64.of_int ((seed * 0x9E3779B1) lxor 0x5DEECE66D)

let uniform c =
  c.state <- Int64.add c.state 0x9E3779B97F4A7C15L;
  (* 53 high bits -> float in [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (remix c.state) 11) *. (1. /. 9007199254740992.)

let sync c =
  let e = Atomic.get epoch in
  if c.ep <> e then begin
    c.ep <- e;
    match Atomic.get armed_cfg with
    | None -> c.prob <- no_prob
    | Some a ->
      let did = (Domain.self () :> int) in
      c.state <-
        (if Domain.is_main_domain () then base_state a.seed
         else Int64.logxor (base_state a.seed) (remix (Int64.of_int did)));
      c.prob <- a.prob
  end

let arm ?(seed = 0) specs =
  let prob = Array.make n_points 0. in
  List.iter (fun (p, pr) -> prob.(index p) <- pr) specs;
  Atomic.set armed_cfg (Some { seed; prob });
  Atomic.incr epoch

let disarm () =
  Atomic.set armed_cfg None;
  Atomic.incr epoch

let check p =
  let c = Domain.DLS.get cell_key in
  sync c;
  if c.prob != no_prob then begin
    let pr = Array.unsafe_get c.prob (index p) in
    if pr > 0. && uniform c < pr then raise (Injected (point_name p))
  end

(* Spec syntax: "point=prob,point=prob[#seed]", e.g. "scan=0.01,join=0.05#42".
   A bare point name means probability 1 (fail on first hit). *)
let parse spec =
  let body, seed =
    match String.index_opt spec '#' with
    | None -> (spec, None)
    | Some i -> (
      let s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt s with
      | Some n -> (String.sub spec 0 i, Some n)
      | None -> (spec, None))
  in
  match seed with
  | None when String.contains spec '#' -> Error (Printf.sprintf "bad failpoint seed in %S" spec)
  | _ ->
    let parts = String.split_on_char ',' body |> List.map String.trim |> List.filter (( <> ) "") in
    let rec build acc = function
      | [] -> Ok (List.rev acc, seed)
      | part :: rest -> (
        let name, prob =
          match String.index_opt part '=' with
          | None -> (part, Some 1.)
          | Some i ->
            ( String.sub part 0 i,
              float_of_string_opt (String.sub part (i + 1) (String.length part - i - 1)) )
        in
        match (point_of_name name, prob) with
        | Some p, Some pr when pr >= 0. && pr <= 1. -> build ((p, pr) :: acc) rest
        | None, _ ->
          Error
            (Printf.sprintf "unknown failpoint %S (expected one of %s)" name
               (String.concat ", " (List.map point_name all_points)))
        | _, _ -> Error (Printf.sprintf "bad failpoint probability in %S" part))
    in
    build [] parts

let arm_spec spec =
  match parse spec with
  | Ok (points, seed) ->
    arm ?seed points;
    Ok ()
  | Error _ as e -> e

let env_var = "OMEGA_FAILPOINTS"

let arm_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok false
  | Some spec -> ( match arm_spec spec with Ok () -> Ok true | Error _ as e -> e)
