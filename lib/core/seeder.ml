module Graph = Graphstore.Graph
module Oid_set = Graphstore.Oid_set
module Nfa = Automaton.Nfa

type t = {
  mutable candidates : int Seq.t; (* lazily produced, possibly with duplicates *)
  delivered : Oid_set.t;
  batch_size : int;
  mutable fixed : (int * int) list option; (* Some: constant-subject seeds *)
  mutable finished : bool;
  governor : Governor.t;
}

let of_list ?filter seeds =
  let seeds =
    match filter with None -> seeds | Some f -> List.filter (fun (oid, _) -> f oid) seeds
  in
  {
    candidates = Seq.empty;
    delivered = Oid_set.create ();
    batch_size = max_int;
    fixed = Some seeds;
    finished = false;
    governor = Governor.unlimited ();
  }

let all_nodes graph : int Seq.t = Seq.init (Graph.n_nodes graph) (fun oid -> oid)

(* Nodes carrying an edge compatible with [lbl], as a sequence (the Sparksee
   Heads/Tails calls of §3.3).  Instead of materialising per-label oid sets,
   each label contributes a lazy ascending scan of the index
   ({!Graph.next_adjacent}), so unneeded batches cost nothing
   downstream. *)
let nodes_with_edge graph (lbl : Nfa.tlabel) : int Seq.t =
  let with_label dir a =
    Seq.unfold
      (fun n ->
        let m = Graph.next_adjacent graph n a dir in
        if m < Graph.n_nodes graph then Some (m, m + 1) else None)
      0
  in
  let all_labels dir =
    List.to_seq (Graph.labels graph) |> Seq.concat_map (fun l -> with_label dir l)
  in
  let dir_of : Nfa.dir -> Graph.dir = function Fwd -> Graph.Out | Bwd -> Graph.In in
  match lbl with
  | Nfa.Eps -> Seq.empty (* removed before evaluation *)
  | Nfa.Sym (d, a) -> with_label (dir_of d) a
  | Nfa.Any -> all_labels Graph.Both
  | Nfa.Any_dir d -> all_labels (dir_of d)
  | Nfa.Sub_closure (d, ls) -> Seq.concat_map (with_label (dir_of d)) (Array.to_seq ls)
  | Nfa.Type_to c -> List.to_seq (Graph.neighbors graph c (Graph.type_label graph) In)

let of_initial_state ?(governor = Governor.unlimited ()) ?filter ~graph ~nfa ~batch_size () =
  let s0 = Nfa.initial nfa in
  let by_start_labels =
    Seq.concat_map
      (fun (tr : Nfa.transition) -> nodes_with_edge graph tr.lbl)
      (List.to_seq (Nfa.out nfa s0))
  in
  let candidates =
    match Nfa.final_weight nfa s0 with
    | Some 0 -> all_nodes graph
    | Some _ -> Seq.append by_start_labels (all_nodes graph)
    | None -> by_start_labels
  in
  (* Shard partitioning (parallel evaluation): candidates outside the
     filter are skipped before the delivered-set dedup, so a shard's seeder
     behaves exactly like a sequential seeder over its own seed subset. *)
  let candidates =
    match filter with None -> candidates | Some f -> Seq.filter f candidates
  in
  {
    candidates;
    delivered = Oid_set.create ();
    batch_size = max 1 batch_size;
    fixed = None;
    finished = false;
    governor;
  }

let next_batch t =
  Failpoints.check Failpoints.Seed_batch;
  match t.fixed with
  | Some seeds ->
    t.fixed <- None;
    t.finished <- true;
    List.filter
      (fun (oid, _) ->
        let fresh = Oid_set.add_new t.delivered oid in
        if fresh then Governor.charge_mem t.governor Mem.seed_entry_bytes;
        fresh)
      seeds
  | None ->
    if t.finished then []
    else begin
      let batch = ref [] and count = ref 0 in
      let rec pull seq =
        (* Deliver a short batch when the governor trips mid-scan: the
           remaining candidates stay queued, and the caller's own poll stops
           it from asking again. *)
        if !count >= t.batch_size || not (Governor.poll t.governor) then t.candidates <- seq
        else
          match seq () with
          | Seq.Nil ->
            t.candidates <- Seq.empty;
            t.finished <- true
          | Seq.Cons (oid, rest) ->
            if Oid_set.add_new t.delivered oid then begin
              (* the delivered set grows for the life of the conjunct —
                 charged against the memory budget like the visited sets *)
              Governor.charge_mem t.governor Mem.seed_entry_bytes;
              batch := (oid, 0) :: !batch;
              incr count
            end;
            pull rest
      in
      pull t.candidates;
      List.rev !batch
    end

let exhausted t = t.finished && t.fixed = None
