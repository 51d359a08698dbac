type dir = Out | In | Both

(* One direction of the index for one label: a CSR row group.  [off] has
   [node_count + 1] entries; the neighbours of node [n] under this label are
   [tgt.(off.(n)) .. tgt.(off.(n+1) - 1)], sorted ascending so lookups are
   mergeable and [mem_edge] can bisect. *)
type csr_rows = { off : int array; tgt : int array }

type csr = {
  slot_of_label : int array; (* label id -> dense slot, or -1 *)
  fwd : csr_rows array; (* slot -> out-adjacency *)
  bwd : csr_rows array; (* slot -> in-adjacency *)
}

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
  mutable csr : csr option;
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

(* --- the CSR index --------------------------------------------------- *)

(* Pack the [(row, value)] pairs [pairs] yields into [n] CSR rows: a
   counting pass, then a fill pass that keeps [pairs]' order within a row. *)
let pack n pairs =
  let off = Array.make (n + 1) 0 in
  pairs (fun row _ -> off.(row + 1) <- off.(row + 1) + 1);
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let tgt = Array.make off.(n) 0 in
  let cursor = Array.sub off 0 n in
  pairs (fun row v ->
      tgt.(cursor.(row)) <- v;
      cursor.(row) <- cursor.(row) + 1);
  { off; tgt }

(* Out-rows from the construction hashtable, each row then sorted. *)
let fwd_rows n tbl =
  let rows = pack n (fun emit -> Hashtbl.iter (fun src cell -> List.iter (emit src) !cell) tbl) in
  for node = 0 to n - 1 do
    let lo = rows.off.(node) and hi = rows.off.(node + 1) in
    if hi - lo > 1 then begin
      let row = Array.sub rows.tgt lo (hi - lo) in
      Array.sort Int.compare row;
      Array.blit row 0 rows.tgt lo (hi - lo)
    end
  done;
  rows

(* In-rows by transposing out-rows: filling in ascending source order leaves
   every row sorted. *)
let transpose n fwd =
  pack n (fun emit ->
      for src = 0 to n - 1 do
        for i = fwd.off.(src) to fwd.off.(src + 1) - 1 do
          emit fwd.tgt.(i) src
        done
      done)

let build t =
  let n = t.node_count and used = labels t in
  let slot_of_label = Array.make (Array.length t.label_counts) (-1) in
  List.iteri (fun slot label -> slot_of_label.(label) <- slot) used;
  let fwd =
    Array.of_list (List.map (fun label -> fwd_rows n (Option.get t.adj_out.(label))) used)
  in
  { slot_of_label; fwd; bwd = Array.map (transpose n) fwd }

(* The one read path: the index, built on first use.  It and the row
   helpers below are inlined because every neighbour scan of [Succ] (and
   every seeding probe) goes through them. *)
let[@inline] index t =
  match t.csr with
  | Some c -> c
  | None ->
    let c = build t in
    t.csr <- Some c;
    c

let freeze t = ignore (index t)

let csr_bytes t =
  match t.csr with
  | None -> 0
  | Some c ->
    let side rows =
      Array.fold_left (fun acc r -> acc + Array.length r.off + Array.length r.tgt) 0 rows
    in
    Sys.word_size / 8 * (side c.fwd + side c.bwd + Array.length c.slot_of_label)

let empty_rows = { off = [||]; tgt = [||] }

(* The row group of [label] in one direction ([c.fwd] or [c.bwd]);
   [empty_rows] for a label the index never saw. *)
let[@inline] rows c side label =
  let slot =
    if label >= 0 && label < Array.length c.slot_of_label then c.slot_of_label.(label) else -1
  in
  if slot < 0 then empty_rows else side.(slot)

let[@inline] iter_row rows n f =
  if n + 1 < Array.length rows.off then
    for i = rows.off.(n) to rows.off.(n + 1) - 1 do
      f rows.tgt.(i)
    done

let[@inline] row_length rows n =
  if n + 1 < Array.length rows.off then rows.off.(n + 1) - rows.off.(n) else 0

(* --- reads ----------------------------------------------------------- *)

let iter_neighbors t n label dir f =
  let c = index t in
  match dir with
  | Out -> iter_row (rows c c.fwd label) n f
  | In -> iter_row (rows c c.bwd label) n f
  | Both ->
    iter_row (rows c c.fwd label) n f;
    iter_row (rows c c.bwd label) n f

let row t n label dir x k =
  let c = index t in
  let r =
    match dir with
    | Out -> rows c c.fwd label
    | In -> rows c c.bwd label
    | Both -> invalid_arg "Graph.row: one direction only"
  in
  if n + 1 < Array.length r.off then k x r.tgt r.off.(n) r.off.(n + 1) else k x r.tgt 0 0

let neighbors t n label dir =
  let acc = ref [] in
  iter_neighbors t n label dir (fun m -> acc := m :: !acc);
  List.rev !acc

(* Every label: a slot-major sweep of the per-label rows (the merged range
   scan of Any_dir), outgoing before incoming for [Both]. *)
let iter_neighbors_all_labels t n dir f =
  let c = index t in
  let sweep side = Array.iter (fun rows -> iter_row rows n f) side in
  match dir with
  | Out -> sweep c.fwd
  | In -> sweep c.bwd
  | Both ->
    sweep c.fwd;
    sweep c.bwd

(* A restricted label set (the RELAX sub-property closure), in the order
   given. *)
let iter_neighbors_labels t n labels dir f =
  Array.iter (fun label -> iter_neighbors t n label dir f) labels

(* bisect the sorted row *)
let row_mem rows n dst =
  let lo = ref rows.off.(n) and hi = ref rows.off.(n + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = rows.tgt.(mid) in
    if v = dst then found := true else if v < dst then lo := mid + 1 else hi := mid
  done;
  !found

let mem_edge t src label dst =
  let c = index t in
  let r = rows c c.fwd label in
  src + 1 < Array.length r.off && row_mem r src dst

let out_degree t n label =
  let c = index t in
  row_length (rows c c.fwd label) n

let in_degree t n label =
  let c = index t in
  row_length (rows c c.bwd label) n

let has_adjacent t n label dir =
  match dir with
  | Out -> out_degree t n label > 0
  | In -> in_degree t n label > 0
  | Both -> out_degree t n label > 0 || in_degree t n label > 0

let iter_nodes t f =
  for oid = 0 to t.node_count - 1 do
    f oid
  done

let iter_edges t f =
  Array.iteri
    (fun label tbl ->
      match tbl with
      | None -> ()
      | Some tbl -> Hashtbl.iter (fun src cell -> List.iter (fun dst -> f src label dst) !cell) tbl)
    t.adj_out

type stats = {
  nodes : int;
  edges : int;
  distinct_labels : int;
  max_out_degree : int;
  max_in_degree : int;
}

let stats t =
  let c = index t in
  let max_deg side =
    Array.fold_left
      (fun best rows ->
        let best = ref best in
        for n = 0 to t.node_count - 1 do
          best := max !best (row_length rows n)
        done;
        !best)
      0 side
  in
  {
    nodes = t.node_count;
    edges = t.edge_count;
    distinct_labels = List.length (labels t);
    max_out_degree = max_deg c.fwd;
    max_in_degree = max_deg c.bwd;
  }

let pp_stats ppf s =
  Format.fprintf ppf "nodes=%d edges=%d labels=%d max_out=%d max_in=%d" s.nodes s.edges
    s.distinct_labels s.max_out_degree s.max_in_degree
