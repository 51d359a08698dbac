module Graph = Graphstore.Graph
module Interner = Graphstore.Interner
module Nfa = Automaton.Nfa
module Regex = Rpq_regex.Regex

type answer = { x : int; y : int; dist : int; witness : Witness.t option }

type tup = { v : int; n : int; s : int; fin : bool; prov : int }
(* [fin] is carried in the tuple (not only as the D_R key) so that the
   final-priority ablation can disable priority popping without losing the
   final/non-final distinction.  [prov] is the tuple's provenance-arena
   index, [Provenance.no_parent] whenever provenance is off. *)

type t = {
  graph : Graph.t;
  nfa : Nfa.t;
  dr : tup Dr_queue.t;
  visited : (int * int * int, unit) Hashtbl.t;
  answers : (int * int, int) Hashtbl.t; (* (v, n) -> first emission distance *)
  suppress : (int * int, int) Hashtbl.t option;
  seeder : Seeder.t;
  target : int option; (* final-state annotation: object constant's oid *)
  same_var : bool; (* subject and object are the same variable *)
  swap : bool; (* case 2: the conjunct was reversed *)
  stats : Exec_stats.t;
  ceiling : int option;
  governor : Governor.t;
  mutable was_pruned : bool;
  opts : Options.t;
  (* The U-cache of §3.4 as a reusable buffer: consecutive transitions with
     the same label share one neighbour scan, and no per-lookup list is
     allocated. *)
  mutable ubuf : int array;
  mutable ulen : int;
  (* Distribution metrics, handles resolved once at open time so recording
     is an array increment (kept unconditional — cheaper than a branch that
     would misrepresent the run when observability is on). *)
  h_queue_depth : Obs.Metrics.histogram;
  h_succ_edges : Obs.Metrics.histogram;
  h_seed_batch_ns : Obs.Metrics.histogram;
  h_pop_distance : Obs.Metrics.histogram;
  h_ops_insert : Obs.Metrics.histogram;
  h_ops_delete : Obs.Metrics.histogram;
  h_ops_subst : Obs.Metrics.histogram;
  h_ops_relax_beta : Obs.Metrics.histogram;
  h_ops_relax_gamma : Obs.Metrics.histogram;
  (* Provenance arena ([Some] iff [options.provenance]): parent pointers for
     every pushed tuple, from which [record_answer] rebuilds witnesses.
     Mutable so stage-1 memory degradation can drop it mid-query. *)
  mutable prov : Provenance.t option;
  seed_beta : int; (* RELAX ancestor-seed ops: cost = depth × beta *)
}

let stats t = t.stats
let pruned t = t.was_pruned
let automaton t = t.nfa

(* RELAX class-ancestor seeds (Open, line 8): the node of every super-class
   of [c], ordered most specific first, each at distance depth*beta.  The
   paper's pseudocode seeds them at distance 0; the answer distances it then
   reports (Fig. 5: RELAX answers at distances 1, 2, 3) show the relaxation
   cost is in fact accounted for, so we seed at the true cost. *)
let relax_ancestor_seeds ~graph ~ontology ~beta oid =
  Failpoints.check Failpoints.Ontology_lookup;
  let interner = Graph.interner graph in
  let label_id = Interner.intern interner (Graph.node_label graph oid) in
  if not (Ontology.is_class ontology label_id) then [ (oid, 0) ]
  else
    List.filter_map
      (fun (cls, depth) ->
        match Graph.find_node graph (Interner.name interner cls) with
        | Some node -> Some (node, depth * beta)
        | None -> None)
      (Ontology.ancestors_by_specificity ontology label_id)

let open_ ~graph ~ontology ~options ?governor ?metrics ?ceiling ?suppress ?seed_filter
    (conjunct : Query.conjunct) =
  let governor =
    match governor with Some g -> g | None -> Options.governor options
  in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  (* Case 2: (?X, R, C) becomes (C, R-, ?X). *)
  let subj, regex, obj, swap =
    match (conjunct.subj, conjunct.obj) with
    | Query.Var _, Query.Const _ ->
      (conjunct.obj, Regex.reverse conjunct.regex, conjunct.subj, true)
    | _ -> (conjunct.subj, conjunct.regex, conjunct.obj, false)
  in
  let mode = Options.compile_mode options conjunct.cmode in
  let nfa = Automaton.Compile.conjunct_automaton ~graph ~ontology ~mode regex in
  let seeder =
    match subj with
    | Query.Const c -> (
      match Graph.find_node graph c with
      | None -> Seeder.of_list [] (* unknown constant: no answers *)
      | Some oid ->
        if conjunct.cmode = Query.Relax then
          Seeder.of_list ?filter:seed_filter
            (relax_ancestor_seeds ~graph ~ontology ~beta:options.Options.costs.beta oid)
        else Seeder.of_list ?filter:seed_filter [ (oid, 0) ])
    | Query.Var _ ->
      let batch_size =
        if options.Options.batched_seeding then options.Options.batch_size else max_int
      in
      Seeder.of_initial_state ~governor ?filter:seed_filter ~graph ~nfa ~batch_size ()
  in
  (* An unknown object constant can never be matched: oids are dense
     non-negative ints, so no tuple's node ever equals the [-1] sentinel.
     Rather than explore the whole reachable product for nothing, drop the
     seeds — the conjunct terminates immediately with zero answers. *)
  let target, seeder =
    match obj with
    | Query.Const c -> (
      match Graph.find_node graph c with
      | Some oid -> (Some oid, seeder)
      | None -> (Some (-1), Seeder.of_list []))
    | Query.Var _ -> (None, seeder)
  in
  let same_var =
    match (subj, obj) with Query.Var a, Query.Var b -> a = b | _ -> false
  in
  {
    graph;
    nfa;
    dr = Dr_queue.create ();
    visited = Hashtbl.create 1024;
    answers = Hashtbl.create 64;
    suppress;
    seeder;
    target;
    same_var;
    swap;
    stats = Exec_stats.create ();
    ceiling;
    governor;
    was_pruned = false;
    opts = options;
    ubuf = Array.make 64 0;
    ulen = 0;
    h_queue_depth = Obs.Metrics.histogram metrics "queue_depth";
    h_succ_edges = Obs.Metrics.histogram metrics "succ_edges";
    h_seed_batch_ns = Obs.Metrics.histogram metrics "seed_batch_ns";
    h_pop_distance = Obs.Metrics.histogram metrics "pop_distance";
    h_ops_insert = Obs.Metrics.histogram metrics "ops_insert";
    h_ops_delete = Obs.Metrics.histogram metrics "ops_delete";
    h_ops_subst = Obs.Metrics.histogram metrics "ops_subst";
    h_ops_relax_beta = Obs.Metrics.histogram metrics "ops_relax_beta";
    h_ops_relax_gamma = Obs.Metrics.histogram metrics "ops_relax_gamma";
    prov = (if options.Options.provenance then Some (Provenance.create ()) else None);
    seed_beta = options.Options.costs.beta;
  }

(* The EXPLAIN view of [open_]: the same case analysis (reversal, compile
   mode, seeding regime), carried out without building the evaluation
   structures.  Returns the compiled automaton, a rendered seeding
   description and whether case 2 reversed the conjunct. *)
let describe ~graph ~ontology ~options (conjunct : Query.conjunct) =
  let subj, regex, obj, swap =
    match (conjunct.Query.subj, conjunct.Query.obj) with
    | Query.Var _, Query.Const _ ->
      (conjunct.Query.obj, Regex.reverse conjunct.Query.regex, conjunct.Query.subj, true)
    | _ -> (conjunct.Query.subj, conjunct.Query.regex, conjunct.Query.obj, false)
  in
  let mode = Options.compile_mode options conjunct.Query.cmode in
  let nfa = Automaton.Compile.conjunct_automaton ~graph ~ontology ~mode regex in
  let seeding =
    match subj with
    | Query.Const c -> (
      match Graph.find_node graph c with
      | None -> Printf.sprintf "empty (unknown constant %S)" c
      | Some oid ->
        if conjunct.Query.cmode = Query.Relax then
          let seeds =
            relax_ancestor_seeds ~graph ~ontology ~beta:options.Options.costs.beta oid
          in
          Printf.sprintf "constant+ancestors %S (%d seeds)" c (List.length seeds)
        else Printf.sprintf "constant %S" c)
    | Query.Var _ ->
      if options.Options.batched_seeding then
        Printf.sprintf "batched(%d)" options.Options.batch_size
      else "up-front"
  in
  let seeding =
    match obj with
    | Query.Const c when Graph.find_node graph c = None ->
      Printf.sprintf "empty (unknown object constant %S)" c
    | _ -> seeding
  in
  (nfa, seeding, swap)

(* [NeighboursByEdge] (§3.4): nodes adjacent to [n] under a transition
   label, observing directionality.  The wildcard [*] retrieves every edge
   of [n] in both directions (the paper issues Neighbors over the generic
   'edge' type plus 'type', both ways).  Every arm is a range scan over the
   CSR index; nothing is allocated. *)
let iter_neighbours_by_edge t n (lbl : Nfa.tlabel) f =
  let dir_of : Nfa.dir -> Graph.dir = function Fwd -> Graph.Out | Bwd -> Graph.In in
  match lbl with
  | Nfa.Eps -> assert false (* the compiled automaton is ε-free *)
  | Nfa.Sym (d, a) -> Graph.iter_neighbors t.graph n a (dir_of d) f
  | Nfa.Any -> Graph.iter_neighbors_all_labels t.graph n Graph.Both f
  | Nfa.Any_dir d -> Graph.iter_neighbors_all_labels t.graph n (dir_of d) f
  | Nfa.Sub_closure (d, ls) -> Graph.iter_neighbors_labels t.graph n ls (dir_of d) f
  | Nfa.Type_to c -> if Graph.mem_edge t.graph n (Graph.type_label t.graph) c then f c

let ubuf_push t m =
  if t.ulen = Array.length t.ubuf then begin
    let bigger = Array.make (2 * t.ulen) 0 in
    Array.blit t.ubuf 0 bigger 0 t.ulen;
    t.ubuf <- bigger
  end;
  t.ubuf.(t.ulen) <- m;
  t.ulen <- t.ulen + 1

let fill_ucache t n lbl =
  Failpoints.check Failpoints.Graph_scan;
  t.ulen <- 0;
  let t0 = !Exec_stats.now_ns () in
  iter_neighbours_by_edge t n lbl (fun m -> ubuf_push t m);
  t.stats.scan_ns <- t.stats.scan_ns + (!Exec_stats.now_ns () - t0);
  t.stats.edges_scanned <- t.stats.edges_scanned + t.ulen;
  t.stats.adjacency_bytes <- t.stats.adjacency_bytes + (t.ulen * (Sys.word_size / 8));
  Obs.Metrics.observe t.h_succ_edges t.ulen

(* [Succ (s, n)]: transitions leaving (s, n) in the product automaton H_R,
   delivered to [f tr m] (the automaton transition taken and the neighbour
   reached — provenance needs the whole transition, its ops included).
   Out-transitions are sorted by label
   (Nfa.normalize), so consecutive identical labels reuse the U-cache buffer
   filled by the previous scan (§3.4).

   Distance-aware retrieval prunes here, before the neighbour lookup: a
   transition that would exceed the ψ ceiling never touches the graph store —
   this is where the §4.3 optimisation saves its work. *)
let iter_succ t s n ~dist f =
  t.stats.succ_calls <- t.stats.succ_calls + 1;
  let cached : Nfa.tlabel option ref = ref None in
  List.iter
    (fun (tr : Nfa.transition) ->
      match t.ceiling with
      | Some psi when dist + tr.cost > psi ->
        t.was_pruned <- true;
        t.stats.pruned <- t.stats.pruned + 1
      | _ ->
        if !cached <> Some tr.lbl then begin
          fill_ucache t n tr.lbl;
          cached := Some tr.lbl
        end;
        for i = 0 to t.ulen - 1 do
          f tr t.ubuf.(i)
        done)
    (Nfa.out t.nfa s)

let push t ~dist ~final tup =
  match t.ceiling with
  | Some psi when dist > psi ->
    t.was_pruned <- true;
    t.stats.pruned <- t.stats.pruned + 1
  | _ ->
    Dr_queue.push t.dr ~dist ~final:(final && t.opts.Options.final_priority) tup;
    t.stats.pushes <- t.stats.pushes + 1;
    if Dr_queue.size t.dr > t.stats.peak_queue then t.stats.peak_queue <- Dr_queue.size t.dr;
    (* The governor owns the tuple budget (cumulative across conjuncts and
       restarts); past the ceiling it trips and the GetNext loop unwinds at
       its next poll — no exception crosses the streaming surface.  The
       queued tuple is also charged against the memory budget, released at
       its pop. *)
    Governor.charge_mem t.governor Mem.tuple_bytes;
    Governor.tick_tuple t.governor

(* Stage-1 memory degradation, consulted at every arena append: under
   pressure the arena is dropped once and recording stops for the rest of
   the query — answers keep their bindings and distances, they lose their
   witnesses.  Tuples still queued keep their (now dangling) arena indices;
   [witness_of] only dereferences through [t.prov], so a dropped arena
   degrades every later answer to [witness = None] rather than faulting. *)
let prov_arena t =
  match t.prov with
  | None -> None
  | Some arena when Governor.drop_provenance t.governor ->
    Governor.release_mem t.governor (Provenance.length arena * Mem.prov_entry_bytes);
    Governor.note_dropped_provenance t.governor;
    t.prov <- None;
    None
  | some -> some

(* Release a discarded evaluation's charges (levelled parts are opened and
   dropped once per psi level).  The [suppress] table is owned by the
   caller and keeps its own charges. *)
let close t =
  Governor.release_mem t.governor (Dr_queue.size t.dr * Mem.tuple_bytes);
  Governor.release_mem t.governor (Hashtbl.length t.visited * Mem.visited_entry_bytes);
  Governor.release_mem t.governor (Hashtbl.length t.answers * Mem.visited_entry_bytes);
  match t.prov with
  | None -> ()
  | Some arena ->
    Governor.release_mem t.governor (Provenance.length arena * Mem.prov_entry_bytes);
    t.prov <- None

let refill_if_needed t =
  (* Coroutine seeding (GetNext lines 14–17), performed before popping so
     that distance-0 seeds always enter D_R ahead of higher-distance pops,
     preserving the non-decreasing answer order.  The poll also breaks the
     loop when the governor trips mid-seeding (the seeder then keeps
     returning short batches without finishing). *)
  let clocked = Obs.Clock.installed () in
  while
    Governor.poll t.governor
    && (not (Seeder.exhausted t.seeder))
    && not (Dr_queue.has_at t.dr 0)
  do
    let t0 = !Exec_stats.now_ns () in
    let batch = Seeder.next_batch t.seeder in
    if batch <> [] then begin
      t.stats.batches <- t.stats.batches + 1;
      t.stats.seeds <- t.stats.seeds + List.length batch;
      List.iter
        (fun (oid, dist) ->
          let prov =
            match prov_arena t with
            | None -> Provenance.no_parent
            | Some arena ->
              (* the only positive-cost seeds are RELAX class ancestors,
                 admitted by rule (i) at depth × beta *)
              let ops =
                if dist = 0 then []
                else
                  [ (Nfa.Super_prop (if t.seed_beta > 0 then dist / t.seed_beta else dist), dist) ]
              in
              Governor.charge_mem t.governor Mem.prov_entry_bytes;
              Provenance.add arena ~parent:Provenance.no_parent ~node:oid
                (Provenance.Seed { cost = dist; ops })
          in
          push t ~dist ~final:false { v = oid; n = oid; s = Nfa.initial t.nfa; fin = false; prov })
        batch
    end;
    if clocked then Obs.Metrics.observe t.h_seed_batch_ns (!Exec_stats.now_ns () - t0);
    if Obs.Flight.enabled () then
      Obs.Flight.complete ~cat:"seed" ~start_ns:t0
        ~args:[ ("seeds", Obs.Flight.Num (List.length batch)) ]
        "seed.batch"
  done

let already_answered t v n =
  Hashtbl.mem t.answers (v, n)
  || match t.suppress with Some tbl -> Hashtbl.mem tbl (v, n) | None -> false

let annotation_matches t tup =
  (match t.target with Some oid -> tup.n = oid | None -> true)
  && ((not t.same_var) || tup.v = tup.n)

(* Rebuild the answer's witness by walking the parent chain from the
   tuple's arena entry back to its seed: one [Edge] hop per Succ expansion
   (its [src] read off the parent entry), the [Seed] hop at the root, and a
   trailing [Final] hop when the accepting state carries a positive final
   weight (an ε-removed trailing deletion) — so hop costs sum to [dist]. *)
let witness_of t (tup : tup) dist =
  match t.prov with
  | None -> None
  | Some arena ->
    let rec walk i acc =
      let parent, node, edge = Provenance.get arena i in
      match edge with
      | Provenance.Seed { cost; ops } -> (node, Witness.Seed { node; cost; ops } :: acc)
      | Provenance.Step tr ->
        let _, src, _ = Provenance.get arena parent in
        walk parent
          (Witness.Edge { src; dst = node; lbl = tr.Nfa.lbl; cost = tr.Nfa.cost; ops = tr.Nfa.ops }
          :: acc)
    in
    let source, hops = walk tup.prov [] in
    let fw = match Nfa.final_weight t.nfa tup.s with Some w -> w | None -> 0 in
    let fops = Nfa.final_ops t.nfa tup.s in
    let hops =
      if fw > 0 || fops <> [] then hops @ [ Witness.Final { cost = fw; ops = fops } ] else hops
    in
    Some { Witness.source; target = tup.n; dist; hops }

let h_op t : Nfa.op -> Obs.Metrics.histogram = function
  | Nfa.Insert -> t.h_ops_insert
  | Nfa.Delete -> t.h_ops_delete
  | Nfa.Subst -> t.h_ops_subst
  | Nfa.Super_prop _ -> t.h_ops_relax_beta
  | Nfa.Type_edge -> t.h_ops_relax_gamma

let record_answer t tup dist =
  (* [already_answered] held, so the keys are new in both tables. *)
  Hashtbl.replace t.answers (tup.v, tup.n) dist;
  Governor.charge_mem t.governor Mem.visited_entry_bytes;
  (match t.suppress with
  | Some tbl ->
    Hashtbl.replace tbl (tup.v, tup.n) dist;
    Governor.charge_mem t.governor Mem.visited_entry_bytes
  | None -> ());
  t.stats.answers <- t.stats.answers + 1;
  let witness = witness_of t tup dist in
  (match witness with
  | Some w -> List.iter (fun (op, c) -> Obs.Metrics.observe (h_op t op) c) (Witness.ops w)
  | None -> ());
  if t.swap then { x = tup.n; y = tup.v; dist; witness } else { x = tup.v; y = tup.n; dist; witness }

let rec get_next t =
  if not (Governor.poll t.governor) then None
  else begin
  refill_if_needed t;
  Obs.Metrics.observe t.h_queue_depth (Dr_queue.size t.dr);
  match Dr_queue.pop t.dr with
  | None -> None (* seeder exhausted too, or everything pruned *)
  | Some (tup, dist, _) when tup.fin ->
    t.stats.pops <- t.stats.pops + 1;
    Governor.release_mem t.governor Mem.tuple_bytes;
    Obs.Metrics.observe t.h_pop_distance dist;
    if already_answered t tup.v tup.n then begin
      t.stats.drop_dup <- t.stats.drop_dup + 1;
      get_next t
    end
    else Some (record_answer t tup dist)
  | Some (tup, dist, _) ->
    t.stats.pops <- t.stats.pops + 1;
    Governor.release_mem t.governor Mem.tuple_bytes;
    Obs.Metrics.observe t.h_pop_distance dist;
    let key = (tup.v, tup.n, tup.s) in
    if not (Hashtbl.mem t.visited key) then begin
      Hashtbl.add t.visited key ();
      Governor.charge_mem t.governor Mem.visited_entry_bytes;
      iter_succ t tup.s tup.n ~dist (fun tr m ->
          let s' = tr.Nfa.dst in
          if not (Hashtbl.mem t.visited (tup.v, m, s')) then begin
            (* the one provenance branch on the hot path: off, [prov] is the
               shared [no_parent] sentinel and nothing is allocated *)
            let prov =
              match prov_arena t with
              | None -> Provenance.no_parent
              | Some arena ->
                Governor.charge_mem t.governor Mem.prov_entry_bytes;
                Provenance.add arena ~parent:tup.prov ~node:m (Provenance.Step tr)
            in
            push t ~dist:(dist + tr.Nfa.cost) ~final:false
              { v = tup.v; n = m; s = s'; fin = false; prov }
          end);
      match Nfa.final_weight t.nfa tup.s with
      | Some weight
        when annotation_matches t tup && not (already_answered t tup.v tup.n) ->
        push t ~dist:(dist + weight) ~final:true { tup with fin = true }
      | _ -> ()
    end
    else t.stats.drop_visited <- t.stats.drop_visited + 1;
    get_next t
  end
