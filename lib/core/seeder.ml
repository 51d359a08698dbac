module Graph = Graphstore.Graph
module Oid_set = Graphstore.Oid_set
module Nfa = Automaton.Nfa

(* Where the seeds come from.  [Fixed] and [Runs] may repeat an oid, so
   they go through the [delivered] set; a [Walk] visits each oid once. *)
type source =
  | Fixed of (int * int) list (* constant-subject seeds, one batch *)
  | Runs of int Seq.t (* lazily produced, possibly with duplicates *)
  | Walk of { keep : int -> bool; n : int; mutable at : int }
      (* oids ascending; [at] is the next one [keep] accepts, or [n] *)

type t = {
  mutable source : source;
  delivered : Oid_set.t;
  batch_size : int;
  mutable finished : bool;
  governor : Governor.t;
}

let make ?(governor = Governor.unlimited ()) ~batch_size source =
  { source; delivered = Oid_set.create (); batch_size; finished = false; governor }

let of_list seeds = make ~batch_size:max_int (Fixed seeds)

let all_nodes graph : int Seq.t = Seq.init (Graph.n_nodes graph) (fun oid -> oid)
let dir_of : Nfa.dir -> Graph.dir = function Fwd -> Graph.Out | Bwd -> Graph.In
let nonempty () _ lo hi = hi > lo

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
  match lbl with
  | Nfa.Eps -> Seq.empty (* removed before evaluation *)
  | Nfa.Sym (d, a) -> with_label (dir_of d) a
  | Nfa.Any -> all_labels Graph.Both
  | Nfa.Any_dir d -> all_labels (dir_of d)
  | Nfa.Sub_closure (d, ls) -> Seq.concat_map (with_label (dir_of d)) (Array.to_seq ls)
  | Nfa.Type_to c -> List.to_seq (Graph.neighbors graph c (Graph.type_label graph) In)

(* Whether node [n] carries an edge compatible with [lbl]: the membership
   test behind {!nodes_with_edge}, for the ascending walk. *)
let carries graph n (lbl : Nfa.tlabel) =
  match lbl with
  | Nfa.Eps -> false
  | Nfa.Sym (d, a) -> Graph.has_adjacent graph n a (dir_of d)
  | Nfa.Any -> Graph.row_all graph n Graph.Both () nonempty
  | Nfa.Any_dir d -> Graph.row_all graph n (dir_of d) () nonempty
  | Nfa.Sub_closure (d, ls) -> Array.exists (fun a -> Graph.has_adjacent graph n a (dir_of d)) ls
  | Nfa.Type_to c -> Graph.mem_edge graph n (Graph.type_label graph) c

(* The first oid from [at] on that [keep] accepts, or [n]. *)
let rec next_kept keep n at = if at >= n || keep at then at else next_kept keep n (at + 1)

let of_initial_state ?governor ?(ascending = false) ~graph ~nfa ~batch_size () =
  let s0 = Nfa.initial nfa in
  let starts = List.map (fun (tr : Nfa.transition) -> tr.lbl) (Nfa.out nfa s0) in
  let batch_size = max 1 batch_size in
  if ascending then begin
    (* The same set as the runs below, in the order that lets {!frontier}
       say which seeds are behind it. *)
    let keep =
      if Nfa.final_weight nfa s0 <> None then fun _ -> true
      else fun n -> List.exists (carries graph n) starts
    in
    let n = Graph.n_nodes graph in
    make ?governor ~batch_size (Walk { keep; n; at = next_kept keep n 0 })
  end
  else
    (* The paper's order: the carriers of each start label in turn, then,
       when [s0] is final with a positive weight, every node. *)
    let by_start_labels = Seq.concat_map (nodes_with_edge graph) (List.to_seq starts) in
    make ?governor ~batch_size
      (Runs
         (match Nfa.final_weight nfa s0 with
         | Some 0 -> all_nodes graph
         | Some _ -> Seq.append by_start_labels (all_nodes graph)
         | None -> by_start_labels))

let exhausted t = t.finished

let frontier t =
  match t.source with
  | _ when t.finished -> max_int
  | Walk w -> if w.at < w.n then w.at else max_int
  | Fixed _ | Runs _ -> 0

let next_batch t =
  Failpoints.check Failpoints.Seed_batch;
  let fresh oid =
    (* the delivered set grows for the life of the conjunct — charged
       against the memory budget like the visited sets *)
    let fresh = Oid_set.add_new t.delivered oid in
    if fresh then Governor.charge_mem t.governor Mem.seed_entry_bytes;
    fresh
  in
  if t.finished then []
  else
    match t.source with
    | Fixed seeds ->
      t.source <- Fixed [];
      t.finished <- true;
      List.filter (fun (oid, _) -> fresh oid) seeds
    | Runs candidates ->
      let batch = ref [] and count = ref 0 in
      let rec pull seq =
        (* Deliver a short batch when the governor trips mid-scan: the
           remaining candidates stay queued, and the caller's own poll stops
           it from asking again. *)
        if !count >= t.batch_size || not (Governor.poll t.governor) then t.source <- Runs seq
        else
          match seq () with
          | Seq.Nil ->
            t.source <- Runs Seq.empty;
            t.finished <- true
          | Seq.Cons (oid, rest) ->
            if fresh oid then begin
              batch := (oid, 0) :: !batch;
              incr count
            end;
            pull rest
      in
      pull candidates;
      List.rev !batch
    | Walk w ->
      let batch = ref [] and count = ref 0 in
      while w.at < w.n && !count < t.batch_size && Governor.poll t.governor do
        batch := (w.at, 0) :: !batch;
        incr count;
        w.at <- next_kept w.keep w.n (w.at + 1)
      done;
      if w.at >= w.n then t.finished <- true;
      List.rev !batch
