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

(* The edge log is the graph's one edge store: edge [i], in insertion
   order, runs from [log_src t i], and [log_edge t i] is
   [label lsl shift lor target], packed as in the index.  The [csr] index,
   built from it on first read and dropped by every mutation, serves every
   read; [iter_edges] replays it. *)
type t = {
  interner : Interner.t;
  type_label : int;
  mutable node_labels : string array;
  mutable node_count : int;
  node_index : (string, int) Hashtbl.t;
  mutable log_src : int array array; (* blocks of [block] edges *)
  mutable log_edge : int array array;
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
    log_src = [||];
    log_edge = [||];
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

let grow a n x =
  let b = Array.make n x in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The log is kept in blocks of one size, appended as it fills: it never
   copies, wastes less than a block, and the blocks a dropped graph frees
   fit the next graph's.  One array grown by copying left the allocator's
   heap fragmented by its ever larger copies, which a process that loads
   more than once kept as resident memory. *)
let block_bits = 14
let block = 1 lsl block_bits
let[@inline] log_src t i = t.log_src.(i lsr block_bits).(i land (block - 1))
let[@inline] log_edge t i = t.log_edge.(i lsr block_bits).(i land (block - 1))

let add_edge t src label dst =
  check_oid t src "add_edge";
  check_oid t dst "add_edge";
  (* an id the interner never issued would also grow [label_counts] *)
  if
    label < 0 || label >= in_bit
    || label >= Interner.cardinal t.interner
    || src > mask || dst > mask
  then
    invalid_arg "Graph.add_edge: label or oid beyond the index's packing";
  t.csr <- None;
  let i = t.edge_count and b = t.edge_count lsr block_bits in
  if i land (block - 1) = 0 then begin
    if b = Array.length t.log_src then begin
      t.log_src <- grow t.log_src (max 4 (2 * b)) [||];
      t.log_edge <- grow t.log_edge (max 4 (2 * b)) [||]
    end;
    t.log_src.(b) <- Array.make block 0;
    t.log_edge.(b) <- Array.make block 0
  end;
  t.log_src.(b).(i land (block - 1)) <- src;
  t.log_edge.(b).(i land (block - 1)) <- (label lsl shift) lor dst;
  t.edge_count <- i + 1;
  if label >= Array.length t.label_counts then
    t.label_counts <- grow t.label_counts (max (2 * Array.length t.label_counts) (label + 1)) 0;
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

let walk_table f label tbl = Hashtbl.iter (fun src cell -> List.iter (fun dst -> f src label dst) !cell) tbl

(* The save order: the log replayed, in insertion order, into per-label
   tables (source oid -> targets, newest first), then walked label by label
   with [Hashtbl.iter].  The tables live for one call; the order they give
   fixes the oid numbering of a graph reloaded from [Nt.save]'s output. *)
let iter_edges t f =
  let tables = Array.make (Array.length t.label_counts) None in
  for i = 0 to t.edge_count - 1 do
    push (table_of tables (log_edge t i lsr shift)) (log_src t i) (log_edge t i land mask)
  done;
  Array.iteri (fun label tbl -> Option.iter (walk_table f label) tbl) tables

(* One label's table alone: it is filled by the same log entries in the
   same order, so it is walked in the same order. *)
let iter_label_edges t label f =
  let tbl = Hashtbl.create 64 in
  for i = 0 to t.edge_count - 1 do
    let e = log_edge t i in
    if e lsr shift = label then push tbl (log_src t i) (e land mask)
  done;
  walk_table f label tbl

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
   (incoming).  A counting sort of the log by label fills the outgoing
   parts label by label; the incoming parts are their transpose, and the
   outgoing parts are rewritten, sorted, as the transpose of those. *)
let build t =
  let n = t.node_count and m = t.edge_count and labels = labels t in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let src = log_src t i and dst = log_edge t i land mask in
    off.(src + 1) <- off.(src + 1) + 1;
    off.(dst + 1) <- off.(dst + 1) + 1
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  (* [order]: the edges' log positions, label by label *)
  let start = Array.make (Array.length t.label_counts) 0 in
  for label = 1 to Array.length start - 1 do
    start.(label) <- start.(label - 1) + t.label_counts.(label - 1)
  done;
  let order = Array.make m 0 in
  for i = 0 to m - 1 do
    let label = log_edge t i lsr shift in
    order.(start.(label)) <- i;
    start.(label) <- start.(label) + 1
  done;
  let ent = Array.make off.(n) 0 and fill = Array.sub off 0 n and next = Array.sub off 0 n in
  Array.iter
    (fun i ->
      let src = log_src t i in
      ent.(fill.(src)) <- log_edge t i;
      fill.(src) <- fill.(src) + 1)
    order;
  (* [fill] now marks each incoming part, which the first sweep writes; it
     leaves [next] there and [fill] at the row's end, the bounds the second
     sweep reads between *)
  let mid = Array.copy fill in
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

let slice_length () _ lo hi = hi - lo
let mem_edge t src label dst = row_to t src label dst () slice_length > 0
let[@inline] out_degree t n label = row t n label Out () slice_length
let[@inline] in_degree t n label = row t n label In () slice_length

(* Whether [n]'s row holds an entry keyed [key]: one search for the
   first entry at or above it. *)
let[@inline] has_key c n key =
  let hi = c.off.(n + 1) in
  let i = find c.ent c.off.(n) hi (key lsl shift) in
  i < hi && c.ent.(i) lsr shift = key

let[@inline] has_adjacent t n label dir =
  let c = index t in
  match dir with
  | Out -> has_key c n label
  | In -> has_key c n (label lor in_bit)
  | Both -> has_key c n label || has_key c n (label lor in_bit)

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
