(* Digest of an answer stream: every answer's bindings and distance, in
   emission order, so a reordering changes the digest as much as a wrong
   answer does. *)

type answer = (string * string) list * int

let of_answers (answers : answer list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (bindings, distance) ->
      List.iter
        (fun (var, label) ->
          Buffer.add_string b var;
          Buffer.add_char b '\x1f';
          Buffer.add_string b label;
          Buffer.add_char b '\x1f')
        bindings;
      Buffer.add_string b (string_of_int distance);
      Buffer.add_char b '\x1e')
    answers;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Whether [answers] is a valid top-[List.length answers] of a stream whose
   answers through the last distance [answers] reaches are [reference]
   (complete for that distance): distances never decrease, every distance
   below the last holds exactly the reference's answers, and the last
   holds a subset of them.  A top-k cut inside a run of equal distances
   may pick any of the tied answers, so this is the check that holds for
   every evaluation order. *)
let is_ranked_prefix ~(reference : answer list) (answers : answer list) =
  let rec sorted = function a :: (b :: _ as rest) -> snd a <= snd b && sorted rest | _ -> true in
  let at d l = List.sort compare (List.filter (fun a -> snd a = d) l) in
  match List.rev answers with
  | [] -> reference = []
  | (_, last) :: _ ->
    let rec subset xs ys =
      match (xs, ys) with
      | [], _ -> true
      | _, [] -> false
      | x :: xs', y :: ys' -> if x = y then subset xs' ys' else if compare y x < 0 then subset xs ys' else false
    in
    let below =
      List.sort_uniq compare (List.filter_map (fun (_, d) -> if d < last then Some d else None) (reference @ answers))
    in
    sorted answers
    && List.for_all (fun d -> at d answers = at d reference) below
    && subset (at last answers) (at last reference)

let of_engine (a : Core.Engine.answer) : answer = (a.bindings, a.distance)
