(* Slot [i] starts at [i * stride]: the pair [(v, n)] in its first two
   cells, then the bitset of the states [s] with [(v, n, s)] in the set, 63
   states to a cell ([stride - 2] cells).  An empty slot has [empty] in its
   first cell, which no key can hold ([v >= 0]); its other cells are
   cleared when a pair takes it. *)

let empty = -1
let bits = 63 (* an int's bits on a 64-bit runtime *)

type t = {
  mutable keys : int array;
  mutable mask : int;
  stride : int;
  states : int;
  mutable pairs : int;
  mutable count : int;
}

let capacity n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  !cap

let create ~states n =
  if states < 1 then invalid_arg "Triple_set.create: no states";
  let stride = 2 + ((states + bits - 1) / bits) and cap = capacity n in
  { keys = Array.make (stride * cap) empty; mask = cap - 1; stride; states; pairs = 0; count = 0 }

(* multiply-xorshift mixing: the slot index takes the low bits, which a
   product alone draws from the low bits of the keys only *)
let[@inline] hash a b =
  let h = (a * 0x9E3779B97F4A7C1) + (b * 0x2545F4914F6CDD1D) in
  let h = (h lxor (h lsr 32)) * 0x3C6EF372FE94F82B in
  h lxor (h lsr 29)

(* The offset of the slot holding [(a, b)], or of the empty slot where it
   would go. *)
let rec probe keys stride mask a b i =
  let j = i * stride in
  let k = Array.unsafe_get keys j in
  if k = empty || (k = a && Array.unsafe_get keys (j + 1) = b) then j
  else probe keys stride mask a b ((i + 1) land mask)

let[@inline] locate t a b = probe t.keys t.stride t.mask a b (hash a b land t.mask)

let find t v n =
  let j = locate t v n in
  if Array.unsafe_get t.keys j = empty then -1 else j

let slot_mem t slot s = slot >= 0 && t.keys.(slot + 2 + (s / bits)) land (1 lsl (s mod bits)) <> 0
let mem t v n s = slot_mem t (find t v n) s

let grow t =
  let old = t.keys and stride = t.stride in
  let cap = 2 * (t.mask + 1) in
  let keys = Array.make (stride * cap) empty in
  for i = 0 to t.mask do
    let j = i * stride in
    let a = old.(j) and b = old.(j + 1) in
    if a <> empty then
      Array.blit old j keys (probe keys stride (cap - 1) a b (hash a b land (cap - 1))) stride
  done;
  t.keys <- keys;
  t.mask <- cap - 1

let add t v n s =
  if v < 0 then invalid_arg "Triple_set.add: negative key";
  if s < 0 || s >= t.states then invalid_arg "Triple_set.add: state out of range";
  let j =
    let j = locate t v n in
    if t.keys.(j) <> empty then j
    else begin
      t.pairs <- t.pairs + 1;
      let j =
        if 2 * t.pairs > t.mask + 1 then begin
          grow t;
          locate t v n
        end
        else j
      in
      t.keys.(j) <- v;
      t.keys.(j + 1) <- n;
      for w = j + 2 to j + t.stride - 1 do
        t.keys.(w) <- 0
      done;
      j
    end
  in
  let w = j + 2 + (s / bits) and bit = 1 lsl (s mod bits) in
  if t.keys.(w) land bit <> 0 then false
  else begin
    t.keys.(w) <- t.keys.(w) lor bit;
    t.count <- t.count + 1;
    true
  end

let length t = t.count
