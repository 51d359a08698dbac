type 'a bucket = { mutable final : 'a list; mutable nonfinal : 'a list }

type 'a t = {
  mutable buckets : 'a bucket array;
  mutable lower : int; (* no tuple sits at a distance below [lower] *)
  mutable count : int;
}

let new_bucket () = { final = []; nonfinal = [] }

let create () = { buckets = Array.init 8 (fun _ -> new_bucket ()); lower = 0; count = 0 }

let ensure t dist =
  let cap = Array.length t.buckets in
  if dist >= cap then begin
    let buckets = Array.init (max (2 * cap) (dist + 1)) (fun _ -> new_bucket ()) in
    Array.blit t.buckets 0 buckets 0 cap;
    t.buckets <- buckets
  end

let push t ~dist ~final v =
  if dist < 0 then invalid_arg "Dr_queue.push: negative distance";
  ensure t dist;
  let bucket = t.buckets.(dist) in
  if final then bucket.final <- v :: bucket.final else bucket.nonfinal <- v :: bucket.nonfinal;
  t.count <- t.count + 1;
  if dist < t.lower then t.lower <- dist

let is_empty t = t.count = 0

let size t = t.count

let rec advance t =
  if t.lower < Array.length t.buckets then begin
    let bucket = t.buckets.(t.lower) in
    if bucket.final = [] && bucket.nonfinal = [] then begin
      t.lower <- t.lower + 1;
      advance t
    end
  end

let peek t =
  if t.count = 0 then None
  else begin
    advance t;
    let dist = t.lower in
    let bucket = t.buckets.(dist) in
    match (bucket.final, bucket.nonfinal) with
    | v :: _, _ -> Some (v, dist, true)
    | [], v :: _ -> Some (v, dist, false)
    | [], [] -> assert false (* advance found a non-empty bucket since count > 0 *)
  end

let pop t =
  let top = peek t in
  (match top with
  | Some (_, dist, final) ->
    let bucket = t.buckets.(dist) in
    if final then bucket.final <- List.tl bucket.final
    else bucket.nonfinal <- List.tl bucket.nonfinal;
    t.count <- t.count - 1
  | None -> ());
  top

let has_at t d =
  d >= 0
  && d < Array.length t.buckets
  && (t.buckets.(d).final <> [] || t.buckets.(d).nonfinal <> [])

let min_distance t =
  if t.count = 0 then None
  else begin
    advance t;
    Some t.lower
  end

let clear t =
  Array.iter
    (fun b ->
      b.final <- [];
      b.nonfinal <- [])
    t.buckets;
  t.lower <- 0;
  t.count <- 0
