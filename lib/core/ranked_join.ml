type binding = (string * int) list

let binding_of pairs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let rec check = function
    | (a, va) :: ((b, vb) :: _ as rest) ->
      if a = b then
        if va = vb then check rest
        else invalid_arg (Printf.sprintf "Ranked_join.binding_of: ?%s bound twice" a)
      else check rest
    | _ -> ()
  in
  check sorted;
  List.sort_uniq compare sorted

let compatible b1 b2 =
  List.for_all
    (fun (v, x) -> match List.assoc_opt v b2 with Some y -> x = y | None -> true)
    b1

let merge b1 b2 = List.sort_uniq compare (b1 @ b2)

type input = {
  pull : unit -> (binding * int * Witness.t list) option;
  mutable seen : (binding * int * Witness.t list) list;
  mutable top : int option; (* smallest distance seen *)
  mutable last : int; (* largest distance seen *)
  mutable exhausted : bool;
}

type t = {
  inputs : input array;
  buffer : (binding * int * Witness.t list) Dr_queue.t; (* keyed by total distance *)
  emitted : (binding, unit) Hashtbl.t;
  governor : Governor.t;
  h_combos : Obs.Metrics.histogram; (* combinations produced per input pull *)
}

let create ?(governor = Governor.unlimited ()) ?metrics streams =
  if streams = [] then invalid_arg "Ranked_join.create: no streams";
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    inputs =
      Array.of_list
        (List.map
           (fun pull -> { pull; seen = []; top = None; last = 0; exhausted = false })
           streams);
    buffer = Dr_queue.create ();
    emitted = Hashtbl.create 64;
    governor;
    h_combos = Obs.Metrics.histogram metrics "join_combos";
  }

(* Lower bound on the total distance of any joined combination that uses at
   least one answer not yet pulled. *)
let threshold t =
  let bound = ref max_int in
  Array.iteri
    (fun i input ->
      if not input.exhausted then begin
        let others_ok = ref true and others_sum = ref 0 in
        Array.iteri
          (fun j other ->
            if i <> j then
              match other.top with
              | Some d -> others_sum := !others_sum + d
              | None -> others_ok := false (* nothing pulled yet: no bound via i *))
          t.inputs;
        if !others_ok && input.last + !others_sum < !bound then bound := input.last + !others_sum
      end)
    t.inputs;
  !bound

(* All join combinations of [fresh] (from input [idx]) with the seen answers
   of every other input.  Witness lists concatenate: a combined binding's
   provenance is one witness per participating conjunct answer. *)
let combinations t idx fresh fresh_dist fresh_wits =
  let n = Array.length t.inputs in
  let rec extend j acc_binding acc_dist acc_wits combos =
    if j = n then (acc_binding, acc_dist, acc_wits) :: combos
    else if j = idx then extend (j + 1) acc_binding acc_dist acc_wits combos
    else
      List.fold_left
        (fun combos (b, d, ws) ->
          if compatible acc_binding b then
            extend (j + 1) (merge acc_binding b) (acc_dist + d) (acc_wits @ ws) combos
          else combos)
        combos t.inputs.(j).seen
  in
  extend 0 fresh fresh_dist fresh_wits []

let pull_one t idx =
  Failpoints.check Failpoints.Join_pull;
  let input = t.inputs.(idx) in
  let start_ns = if Obs.Flight.enabled () then !Obs.Clock.now_ns () else 0 in
  match input.pull () with
  | None ->
    input.exhausted <- true;
    if Obs.Flight.enabled () then
      Obs.Flight.complete ~cat:"join" ~start_ns
        ~args:[ ("input", Obs.Flight.Num idx); ("combos", Obs.Flight.Num 0) ]
        "join.pull"
  | Some (b, d, ws) ->
    input.seen <- (b, d, ws) :: input.seen;
    (* [seen] lists are retained for the life of the join — the quadratic
       half of its footprint, charged but never released *)
    Governor.charge_mem t.governor Mem.join_seen_bytes;
    input.last <- max input.last d;
    (match input.top with Some top when top <= d -> () | _ -> input.top <- Some d);
    let combos = combinations t idx b d ws in
    List.iter
      (fun (binding, total, wits) ->
        Dr_queue.push t.buffer ~dist:total ~final:false (binding, total, wits);
        (* buffered join combinations are held in memory just like D_R
           tuples, so they draw on the same governor budgets (tuple and
           memory; the bytes are released when the combination is popped) *)
        Governor.charge_mem t.governor Mem.join_combo_bytes;
        Governor.tick_tuple t.governor)
      combos;
    Obs.Metrics.observe t.h_combos (List.length combos);
    if Obs.Flight.enabled () then
      Obs.Flight.complete ~cat:"join" ~start_ns
        ~args:[ ("input", Obs.Flight.Num idx); ("combos", Obs.Flight.Num (List.length combos)) ]
        "join.pull"

let next_source t =
  (* The non-exhausted input with the smallest last-seen distance; inputs
     that have produced nothing yet are served first so every stream gets a
     first pull. *)
  let best = ref (-1) in
  Array.iteri
    (fun i input ->
      if not input.exhausted then
        match !best with
        | -1 -> best := i
        | b ->
          let weight j = if t.inputs.(j).top = None then min_int else t.inputs.(j).last in
          if weight i < weight b then best := i)
    t.inputs;
  !best

let rec next t =
  if not (Governor.poll t.governor) then None
  else
  let releasable =
    match Dr_queue.min_distance t.buffer with
    | Some d -> d <= threshold t
    | None -> false
  in
  if releasable then begin
    match Dr_queue.pop t.buffer with
    | Some ((binding, total, wits), _, _) ->
      Governor.release_mem t.governor Mem.join_combo_bytes;
      if Hashtbl.mem t.emitted binding then next t
      else begin
        Hashtbl.add t.emitted binding ();
        Governor.charge_mem t.governor Mem.answer_entry_bytes;
        Some (binding, total, wits)
      end
    | None ->
      Invariant.fail
        "Ranked_join.next: buffer reported min distance %d <= threshold %d but popped empty \
         (%d input stream(s), %d binding(s) emitted)"
        (Option.value (Dr_queue.min_distance t.buffer) ~default:(-1))
        (threshold t) (Array.length t.inputs) (Hashtbl.length t.emitted)
  end
  else
    match next_source t with
    | -1 -> (
      (* every input exhausted: flush the buffer *)
      match Dr_queue.pop t.buffer with
      | Some ((binding, total, wits), _, _) ->
        Governor.release_mem t.governor Mem.join_combo_bytes;
        if Hashtbl.mem t.emitted binding then next t
        else begin
          Hashtbl.add t.emitted binding ();
          Governor.charge_mem t.governor Mem.answer_entry_bytes;
          Some (binding, total, wits)
        end
      | None -> None)
    | idx ->
      pull_one t idx;
      next t
