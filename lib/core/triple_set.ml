(* Slot [i] holds its key in [keys.(3i) .. keys.(3i + 2)]; an empty slot
   has [empty] in its first cell, which no key can hold ([a >= 0]). *)

let empty = -1

type t = { mutable keys : int array; mutable mask : int; mutable count : int }

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make (3 * !cap) empty; mask = !cap - 1; count = 0 }

(* multiply-xorshift mixing: the slot index takes the low bits, which a
   product alone draws from the low bits of the keys only *)
let[@inline] hash a b c =
  let h = (a * 0x9E3779B97F4A7C1) + (b * 0x2545F4914F6CDD1D) + (c * 0x632BE59BD9B4E01) in
  let h = (h lxor (h lsr 32)) * 0x3C6EF372FE94F82B in
  h lxor (h lsr 29)

(* The slot holding [(a, b, c)], or the empty slot where it would go. *)
let rec probe keys mask a b c i =
  let j = 3 * i in
  let k = Array.unsafe_get keys j in
  if k = empty || (k = a && Array.unsafe_get keys (j + 1) = b && Array.unsafe_get keys (j + 2) = c)
  then i
  else probe keys mask a b c ((i + 1) land mask)

let mem t a b c =
  let i = probe t.keys t.mask a b c (hash a b c land t.mask) in
  Array.unsafe_get t.keys (3 * i) <> empty

let set keys i a b c =
  let j = 3 * i in
  keys.(j) <- a;
  keys.(j + 1) <- b;
  keys.(j + 2) <- c

let insert keys mask a b c = set keys (probe keys mask a b c (hash a b c land mask)) a b c

let grow t =
  let old = t.keys in
  let cap = 2 * (t.mask + 1) in
  let keys = Array.make (3 * cap) empty in
  for i = 0 to t.mask do
    let j = 3 * i in
    if old.(j) <> empty then insert keys (cap - 1) old.(j) old.(j + 1) old.(j + 2)
  done;
  t.keys <- keys;
  t.mask <- cap - 1

let add t a b c =
  if a < 0 then invalid_arg "Triple_set.add: negative key";
  let i = probe t.keys t.mask a b c (hash a b c land t.mask) in
  if t.keys.(3 * i) <> empty then false
  else begin
    t.count <- t.count + 1;
    if 2 * t.count > t.mask + 1 then begin
      grow t;
      insert t.keys t.mask a b c
    end
    else set t.keys i a b c;
    true
  end

let length t = t.count
