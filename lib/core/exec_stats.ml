type t = {
  mutable pushes : int;
  mutable pops : int;
  mutable succ_calls : int;
  mutable edges_scanned : int;
  mutable adjacency_bytes : int;
  mutable scan_ns : int;
  mutable batches : int;
  mutable seeds : int;
  mutable answers : int;
  mutable peak_queue : int;
  mutable restarts : int;
  mutable pruned : int;
  mutable drop_visited : int;
  mutable drop_dup : int;
  mutable mem_bytes_peak : int;
  mutable admission_est_states : int;
  mutable degrade_drop_provenance : int;
  mutable degrade_shrink_psi : int;
  mutable par_shards : int;
  mutable par_busy_total_ns : int;
  mutable par_busy_max_ns : int;
  mutable gc_minor_words : int;
  mutable gc_major_words : int;
  mutable gc_minor_collections : int;
  mutable gc_major_collections : int;
}

(* The monotonic clock used to attribute time to neighbour scans ([scan_ns])
   is the shared process clock: one [Obs.Clock.install] in a binary's init
   turns on every time attribution at once (scan_ns, governor deadlines,
   trace timestamps).  The default reads nothing, so the engine stays
   dependency-free and pays no syscall on the hot path. *)
let now_ns = Obs.Clock.now_ns

let create () =
  {
    pushes = 0;
    pops = 0;
    succ_calls = 0;
    edges_scanned = 0;
    adjacency_bytes = 0;
    scan_ns = 0;
    batches = 0;
    seeds = 0;
    answers = 0;
    peak_queue = 0;
    restarts = 0;
    pruned = 0;
    drop_visited = 0;
    drop_dup = 0;
    mem_bytes_peak = 0;
    admission_est_states = 0;
    degrade_drop_provenance = 0;
    degrade_shrink_psi = 0;
    par_shards = 0;
    par_busy_total_ns = 0;
    par_busy_max_ns = 0;
    gc_minor_words = 0;
    gc_major_words = 0;
    gc_minor_collections = 0;
    gc_major_collections = 0;
  }

let copy t = { t with pushes = t.pushes }

(* The one counter table: name, merge rule and accessors of every field, in
   declaration order.  High-water marks (queue depth, memory, the admission
   estimate, the slowest shard) merge by max; everything else sums.  The
   hot paths keep incrementing the record fields directly. *)
type merge = Sum | Max
type field = { name : string; merge : merge; get : t -> int; set : t -> int -> unit }

let fields =
  let f name merge get set = { name; merge; get; set } in
  [
    f "pushes" Sum (fun t -> t.pushes) (fun t v -> t.pushes <- v);
    f "pops" Sum (fun t -> t.pops) (fun t v -> t.pops <- v);
    f "succ_calls" Sum (fun t -> t.succ_calls) (fun t v -> t.succ_calls <- v);
    f "edges_scanned" Sum (fun t -> t.edges_scanned) (fun t v -> t.edges_scanned <- v);
    f "adjacency_bytes" Sum (fun t -> t.adjacency_bytes) (fun t v -> t.adjacency_bytes <- v);
    f "scan_ns" Sum (fun t -> t.scan_ns) (fun t v -> t.scan_ns <- v);
    f "batches" Sum (fun t -> t.batches) (fun t v -> t.batches <- v);
    f "seeds" Sum (fun t -> t.seeds) (fun t v -> t.seeds <- v);
    f "answers" Sum (fun t -> t.answers) (fun t v -> t.answers <- v);
    f "peak_queue" Max (fun t -> t.peak_queue) (fun t v -> t.peak_queue <- v);
    f "restarts" Sum (fun t -> t.restarts) (fun t v -> t.restarts <- v);
    f "pruned" Sum (fun t -> t.pruned) (fun t v -> t.pruned <- v);
    f "drop_visited" Sum (fun t -> t.drop_visited) (fun t v -> t.drop_visited <- v);
    f "drop_dup" Sum (fun t -> t.drop_dup) (fun t v -> t.drop_dup <- v);
    f "mem_bytes_peak" Max (fun t -> t.mem_bytes_peak) (fun t v -> t.mem_bytes_peak <- v);
    f "admission_est_states" Max
      (fun t -> t.admission_est_states) (fun t v -> t.admission_est_states <- v);
    f "degrade_drop_provenance" Sum
      (fun t -> t.degrade_drop_provenance) (fun t v -> t.degrade_drop_provenance <- v);
    f "degrade_shrink_psi" Sum
      (fun t -> t.degrade_shrink_psi) (fun t v -> t.degrade_shrink_psi <- v);
    f "par_shards" Sum (fun t -> t.par_shards) (fun t v -> t.par_shards <- v);
    f "par_busy_total_ns" Sum (fun t -> t.par_busy_total_ns) (fun t v -> t.par_busy_total_ns <- v);
    f "par_busy_max_ns" Max (fun t -> t.par_busy_max_ns) (fun t v -> t.par_busy_max_ns <- v);
    f "gc_minor_words" Sum (fun t -> t.gc_minor_words) (fun t v -> t.gc_minor_words <- v);
    f "gc_major_words" Sum (fun t -> t.gc_major_words) (fun t v -> t.gc_major_words <- v);
    f "gc_minor_collections" Sum
      (fun t -> t.gc_minor_collections) (fun t v -> t.gc_minor_collections <- v);
    f "gc_major_collections" Sum
      (fun t -> t.gc_major_collections) (fun t v -> t.gc_major_collections <- v);
  ]

let reset t = List.iter (fun c -> c.set t 0) fields

let merge_into acc x =
  List.iter
    (fun c ->
      let a = c.get acc and b = c.get x in
      c.set acc (match c.merge with Sum -> a + b | Max -> max a b))
    fields

let field_names = List.map (fun c -> c.name) fields
let to_assoc t = List.map (fun c -> (c.name, c.get t)) fields

let record_into registry t =
  List.iter (fun c -> Obs.Metrics.set (Obs.Metrics.counter registry c.name) (c.get t)) fields

let pp ppf t =
  Format.fprintf ppf "pushes=%d pops=%d succ=%d edges=%d adj-bytes=%d " t.pushes t.pops t.succ_calls
    t.edges_scanned t.adjacency_bytes;
  (* A silent 0 used to be indistinguishable from "no clock installed"; flag
     the uninstalled case instead of reporting a fake measurement. *)
  if t.scan_ns = 0 && not (Obs.Clock.installed ()) then Format.fprintf ppf "scan-ns=n/a"
  else Format.fprintf ppf "scan-ns=%d" t.scan_ns;
  Format.fprintf ppf " batches=%d seeds=%d answers=%d peak=%d restarts=%d pruned=%d" t.batches
    t.seeds t.answers t.peak_queue t.restarts t.pruned;
  Format.fprintf ppf " drop-visited=%d drop-dup=%d" t.drop_visited t.drop_dup;
  if t.mem_bytes_peak > 0 then Format.fprintf ppf " mem-peak=%d" t.mem_bytes_peak;
  if t.admission_est_states > 0 then Format.fprintf ppf " adm-states=%d" t.admission_est_states;
  if t.degrade_drop_provenance > 0 || t.degrade_shrink_psi > 0 then
    Format.fprintf ppf " degrade=prov:%d,psi:%d" t.degrade_drop_provenance t.degrade_shrink_psi;
  if t.par_shards > 0 then Format.fprintf ppf " par-shards=%d" t.par_shards;
  if t.par_busy_total_ns > 0 then
    Format.fprintf ppf " par-busy=%d/max:%d" t.par_busy_total_ns t.par_busy_max_ns;
  if t.gc_minor_words > 0 || t.gc_major_words > 0 then
    Format.fprintf ppf " gc=minor:%d,major:%d,collections:%d/%d" t.gc_minor_words t.gc_major_words
      t.gc_minor_collections t.gc_major_collections
