type dir = Out | In | Both

(* The index: node [n]'s row is [ent.(off.(n)) .. ent.(off.(n+1) - 1)],
   one entry per edge at [n], each packed as [key lsl shift lor target]
   where [key] is the edge's label, with [in_bit] set for an incoming edge.
   Rows are sorted as ints, so in (direction, label, target) order: every
   label kind is one slice of a row, found by bisection on the key. *)
type index = { off : int array; ent : int array }

type entries = int array

let shift = 32
let mask = (1 lsl shift) - 1
let in_bit = 1 lsl 29 (* keys stay below [1 lsl 30], so entries are positive *)

let[@inline] target (e : entries) i = e.(i) land mask

(* [adj_out] (label id -> source oid -> targets, newest first) is
   construction-only storage: every read goes through the [csr] index, which
   {!index} builds from it on first use and every mutation drops.  Its
   [Hashtbl.iter] order is the order [iter_edges] (and so [Nt.save]) emits
   edges in, which fixes oid numbering on reload. *)
type t = {
  interner : Interner.t;
  type_label : int;
  mutable node_labels : string array;
  mutable node_count : int;
  node_index : (string, int) Hashtbl.t;
  mutable adj_out : (int, int list ref) Hashtbl.t option array;
  mutable edge_count : int;
  mutable label_counts : int array; (* label id -> number of edges *)
  mutable csr : index option;
}

let create ?(initial_nodes = 1024) () =
  let interner = Interner.create () in
  let type_label = Interner.intern interner "type" in
  {
    interner;
    type_label;
    node_labels = Array.make (max 1 initial_nodes) "";
    node_count = 0;
    node_index = Hashtbl.create initial_nodes;
    adj_out = Array.make 16 None;
    edge_count = 0;
    label_counts = Array.make 16 0;
    csr = None;
  }

let interner t = t.interner
let type_label t = t.type_label

let add_node t label =
  match Hashtbl.find_opt t.node_index label with
  | Some oid -> oid
  | None ->
    t.csr <- None;
    let cap = Array.length t.node_labels in
    if t.node_count >= cap then begin
      let labels = Array.make (2 * cap) "" in
      Array.blit t.node_labels 0 labels 0 t.node_count;
      t.node_labels <- labels
    end;
    let oid = t.node_count in
    t.node_labels.(oid) <- label;
    t.node_count <- t.node_count + 1;
    Hashtbl.add t.node_index label oid;
    oid

let grow_adj t label =
  let cap = Array.length t.adj_out in
  if label >= cap then begin
    let n = max (2 * cap) (label + 1) in
    let out = Array.make n None and counts = Array.make n 0 in
    Array.blit t.adj_out 0 out 0 cap;
    Array.blit t.label_counts 0 counts 0 cap;
    t.adj_out <- out;
    t.label_counts <- counts
  end

let table_of arr label =
  match arr.(label) with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    arr.(label) <- Some tbl;
    tbl

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add tbl key (ref [ v ])

let check_oid t oid ctx =
  if oid < 0 || oid >= t.node_count then
    invalid_arg (Printf.sprintf "Graph.%s: unknown oid %d" ctx oid)

let add_edge t src label dst =
  check_oid t src "add_edge";
  check_oid t dst "add_edge";
  t.csr <- None;
  grow_adj t label;
  push (table_of t.adj_out label) src dst;
  t.edge_count <- t.edge_count + 1;
  t.label_counts.(label) <- t.label_counts.(label) + 1

let add_edge_s t src label dst = add_edge t src (Interner.intern t.interner label) dst

let find_node t label = Hashtbl.find_opt t.node_index label

let node_label t oid =
  check_oid t oid "node_label";
  t.node_labels.(oid)

let n_nodes t = t.node_count
let n_edges t = t.edge_count

let labels t =
  let acc = ref [] in
  for label = Array.length t.label_counts - 1 downto 0 do
    if t.label_counts.(label) > 0 then acc := label :: !acc
  done;
  !acc

let iter_edges t f =
  Array.iteri
    (fun label tbl ->
      match tbl with
      | None -> ()
      | Some tbl -> Hashtbl.iter (fun src cell -> List.iter (fun dst -> f src label dst) !cell) tbl)
    t.adj_out

(* --- the CSR index --------------------------------------------------- *)

(* For each label, nodes [v] ascending: copy every entry keyed
   [label lor from] of [v]'s part [next.(v) .. upto.(v) - 1] to its target
   [w]'s other part at [into.(w)], keyed [label lor to_], with target [v].
   Parts grouped by label yield sorted parts. *)
let transpose ent labels ~next ~upto ~into ~from ~to_ =
  List.iter
    (fun label ->
      let key = label lor from and e = (label lor to_) lsl shift in
      for v = 0 to Array.length next - 1 do
        while next.(v) < upto.(v) && ent.(next.(v)) lsr shift = key do
          let w = target ent next.(v) in
          ent.(into.(w)) <- e lor v;
          into.(w) <- into.(w) + 1;
          next.(v) <- next.(v) + 1
        done
      done)
    labels

(* Every edge lands in its source's row (outgoing) and its target's
   (incoming).  The outgoing parts are filled in [iter_edges] order, label
   by label; the incoming parts are their transpose, and the outgoing parts
   are rewritten, sorted, as the transpose of those. *)
let build t =
  let n = t.node_count and labels = labels t in
  if n > mask + 1 || Array.length t.label_counts > in_bit then
    invalid_arg "Graph: too many nodes or labels for the index";
  let off = Array.make (n + 1) 0 and mid = Array.make n 0 in
  iter_edges t (fun src _ dst ->
      mid.(src) <- mid.(src) + 1;
      off.(src + 1) <- off.(src + 1) + 1;
      off.(dst + 1) <- off.(dst + 1) + 1);
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  for v = 0 to n - 1 do
    mid.(v) <- off.(v) + mid.(v)
  done;
  let ent = Array.make off.(n) 0 and fill = Array.sub off 0 n and next = Array.sub off 0 n in
  iter_edges t (fun src label dst ->
      ent.(fill.(src)) <- (label lsl shift) lor dst;
      fill.(src) <- fill.(src) + 1);
  (* [fill] now marks each incoming part, which the first sweep writes; it
     leaves [next] there and [fill] at the row's end, the bounds the second
     sweep reads between *)
  transpose ent labels ~next ~upto:mid ~into:fill ~from:0 ~to_:in_bit;
  Array.blit off 0 mid 0 n;
  transpose ent labels ~next ~upto:fill ~into:mid ~from:in_bit ~to_:0;
  { off; ent }

(* The one read path: the index, built on first use.  It and the slice
   readers below are inlined because every neighbour scan of [Succ] (and
   every seeding probe) goes through them. *)
let[@inline] index t =
  match t.csr with
  | Some c -> c
  | None ->
    let c = build t in
    t.csr <- Some c;
    c

let freeze t = ignore (index t)
let entries t = (index t).ent

let csr_bytes t =
  match t.csr with
  | None -> 0
  | Some c -> Sys.word_size / 8 * (Array.length c.off + Array.length c.ent)

(* The first position in [lo, hi) whose entry is at least [e], or [hi].
   [bisect] has no branch on the comparison ([x - e < 0] iff [x < e]).
   [find] scans a short row; it narrows a long one by doubling steps from
   [lo], so a label near the start of a hub's row is found in its first
   cache lines. *)
let[@inline] bisect ent lo hi e =
  let base = ref lo and len = ref (hi - lo) in
  while !len > 1 do
    let half = !len / 2 in
    base := !base + (half land ((ent.(!base + half - 1) - e) asr 62));
    len := !len - half
  done;
  if !len = 1 && ent.(!base) < e then !base + 1 else !base

let[@inline] find ent lo hi e =
  if hi - lo <= 16 then begin
    let i = ref lo in
    while !i < hi && ent.(!i) < e do
      incr i
    done;
    !i
  end
  else begin
    let step = ref 1 and lo = ref lo in
    while !lo + !step < hi && ent.(!lo + !step) < e do
      lo := !lo + !step;
      step := 2 * !step
    done;
    bisect ent !lo (min hi (!lo + !step)) e
  end

(* --- reads ----------------------------------------------------------- *)

(* The slice of [n]'s row whose entries lie in [[e1, e2)]. *)
let[@inline] span t n e1 e2 x k =
  let c = index t in
  let hi = c.off.(n + 1) in
  let lo = find c.ent c.off.(n) hi e1 in
  k x c.ent lo (find c.ent lo hi e2)

let[@inline] row t n label dir x k =
  let key =
    match dir with
    | Out -> label
    | In -> label lor in_bit
    | Both -> invalid_arg "Graph.row: one direction only"
  in
  span t n (key lsl shift) ((key + 1) lsl shift) x k

let[@inline] row_all t n dir x k =
  match dir with
  | Out -> span t n 0 (in_bit lsl shift) x k
  | In -> span t n (in_bit lsl shift) max_int x k
  | Both ->
    let c = index t in
    k x c.ent c.off.(n) c.off.(n + 1)

let[@inline] row_to t n label dst x k =
  let c = index t in
  let e = (label lsl shift) lor dst and hi = c.off.(n + 1) in
  let i = find c.ent c.off.(n) hi e in
  k x c.ent i (if i < hi && c.ent.(i) = e then i + 1 else i)

let iter_slice f ent lo hi =
  for i = lo to hi - 1 do
    f (target ent i)
  done

let iter_neighbors t n label dir f =
  match dir with
  | Out | In -> row t n label dir f iter_slice
  | Both ->
    row t n label Out f iter_slice;
    row t n label In f iter_slice

let neighbors t n label dir =
  let acc = ref [] in
  iter_neighbors t n label dir (fun m -> acc := m :: !acc);
  List.rev !acc

let iter_neighbors_all_labels t n dir f = row_all t n dir f iter_slice

(* A restricted label set (the RELAX sub-property closure), in the order
   given. *)
let iter_neighbors_labels t n labels dir f =
  Array.iter (fun label -> iter_neighbors t n label dir f) labels

let slice_length () _ lo hi = hi - lo
let mem_edge t src label dst = row_to t src label dst () slice_length > 0
let[@inline] out_degree t n label = row t n label Out () slice_length
let[@inline] in_degree t n label = row t n label In () slice_length

let[@inline] has_adjacent t n label dir =
  match dir with
  | Out -> out_degree t n label > 0
  | In -> in_degree t n label > 0
  | Both -> out_degree t n label > 0 || in_degree t n label > 0

let next_adjacent t n label dir =
  let n = ref n in
  while !n < t.node_count && not (has_adjacent t !n label dir) do
    incr n
  done;
  !n

let iter_nodes t f =
  for oid = 0 to t.node_count - 1 do
    f oid
  done

type stats = {
  nodes : int;
  edges : int;
  distinct_labels : int;
  max_out_degree : int;
  max_in_degree : int;
}

(* The longest run of one key in any row: the largest single-label
   degree, per direction. *)
let stats t =
  let c = index t in
  let max_out = ref 0 and max_in = ref 0 and run = ref 0 in
  for n = 0 to t.node_count - 1 do
    for i = c.off.(n) to c.off.(n + 1) - 1 do
      let key = c.ent.(i) lsr shift in
      run := if i > c.off.(n) && c.ent.(i - 1) lsr shift = key then !run + 1 else 1;
      let best = if key land in_bit = 0 then max_out else max_in in
      best := max !best !run
    done
  done;
  {
    nodes = t.node_count;
    edges = t.edge_count;
    distinct_labels = List.length (labels t);
    max_out_degree = !max_out;
    max_in_degree = !max_in;
  }

let pp_stats ppf s =
  Format.fprintf ppf "nodes=%d edges=%d labels=%d max_out=%d max_in=%d" s.nodes s.edges
    s.distinct_labels s.max_out_degree s.max_in_degree
