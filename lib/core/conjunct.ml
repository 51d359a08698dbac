module Graph = Graphstore.Graph
module Interner = Graphstore.Interner
module Nfa = Automaton.Nfa

type answer = { x : int; y : int; dist : int; witness : Witness.t option }

type tup = { v : int; n : int; s : int; fin : bool; prov : int }
(* [fin] is carried in the tuple (not only as the D_R key) so that the
   final-priority ablation can disable priority popping without losing the
   final/non-final distinction.  [prov] is the tuple's provenance-arena
   index, [Provenance.no_parent] whenever provenance is off. *)

(* A D_R entry: a tuple, or a cursor — the successors of a popped [parent]
   under one transition [tr] that [GetNext] has not reached yet, the
   neighbours [Graph.target arr lo .. Graph.target arr (hi - 1)], a slice
   of the index.  A cursor on top of its bucket's stack yields its last
   remaining neighbour and stays there until it yields its last; its
   ledger charge, [Mem.cursor_bytes], is released then. *)
type entry =
  | Tup of tup
  | Cur of { parent : tup; tr : Nfa.transition; arr : Graph.entries; lo : int; mutable hi : int }

type t = {
  graph : Graph.t;
  nfa : Nfa.t;
  dr : entry Dr_queue.t;
  mutable dr_bytes : int; (* the ledger charge of the entries in [dr] *)
  visited : Triple_set.t;
  answers : (int * int, int) Hashtbl.t; (* (v, n) -> first emission distance *)
  suppress : (int * int, int) Hashtbl.t option;
  seeder : Seeder.t;
  frontier : (int -> unit) option; (* told Seeder.frontier whenever D_R has no distance-0 entry *)
  target : int option; (* final-state annotation: object constant's oid *)
  same_var : bool; (* subject and object are the same variable *)
  swap : bool; (* case 2: the conjunct was reversed *)
  stats : Exec_stats.t;
  ceiling : int option;
  governor : Governor.t;
  mutable was_pruned : bool;
  opts : Options.t;
  (* The U-cache of §3.4: the neighbour range of the expanding node under
     label [rlbl] ([Eps]: none yet), shared by consecutive transitions with
     that label: [nslices] slices of the index [rarr], slice [i] from
     [slices.(2i)] to [slices.(2i + 1)] (one per label of a [Sub_closure]). *)
  mutable rlbl : Nfa.tlabel;
  mutable rarr : Graph.entries;
  mutable slices : int array;
  mutable nslices : int;
  (* Distribution metrics, handles resolved once at open time so recording
     is an array increment (kept unconditional — cheaper than a branch that
     would misrepresent the run when observability is on). *)
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

(* RELAX class-ancestor seeds (Open, line 8): the node of every super-class
   of [c], ordered most specific first, each at distance depth*beta.  The
   paper's pseudocode seeds them at distance 0; the answer distances it then
   reports (Fig. 5: RELAX answers at distances 1, 2, 3) show the relaxation
   cost is in fact accounted for, so we seed at the true cost. *)
let relax_ancestor_seeds ~graph ~ontology ~beta oid =
  Failpoints.check Failpoints.Ontology_lookup;
  let interner = Graph.interner graph in
  (* [find], not [intern]: a label never interned is no class, and open
     may run on a worker domain, which must not grow the shared interner *)
  match Interner.find interner (Graph.node_label graph oid) with
  | Some label_id when Ontology.is_class ontology label_id ->
    List.filter_map
      (fun (cls, depth) ->
        match Graph.find_node graph (Interner.name interner cls) with
        | Some node -> Some (node, depth * beta)
        | None -> None)
      (Ontology.ancestors_by_specificity ontology label_id)
  | _ -> [ (oid, 0) ]

let open_ ~graph ~ontology ~options ?governor ?metrics ?ceiling ?suppress ?seed_filter ?frontier
    (plan : Plan.t) (part : Plan.part) =
  let governor =
    match governor with Some g -> g | None -> Options.governor options
  in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let nfa = part.Plan.nfa in
  let seeder =
    match plan.Plan.seeding with
    | Plan.Empty _ -> Seeder.of_list []
    | Plan.Constant { oid; _ } -> Seeder.of_list [ (oid, 0) ]
    | Plan.Ancestors { oid; _ } ->
      Seeder.of_list
        (relax_ancestor_seeds ~graph ~ontology ~beta:options.Options.costs.beta oid)
    | Plan.Variable { batch_size } ->
      Seeder.of_initial_state ~governor ?filter:seed_filter ~graph ~nfa ~batch_size ()
  in
  {
    graph;
    nfa;
    dr = Dr_queue.create ();
    dr_bytes = 0;
    visited = Triple_set.create 1024;
    answers = Hashtbl.create 64;
    suppress;
    seeder;
    frontier;
    target = plan.Plan.target;
    same_var = plan.Plan.same_var;
    swap = plan.Plan.reversed;
    stats = Exec_stats.create ();
    ceiling;
    governor;
    was_pruned = false;
    opts = options;
    rlbl = Nfa.Eps;
    rarr = Graph.entries graph;
    slices = [| 0; 0 |];
    nslices = 0;
    h_pop_distance = Obs.Metrics.histogram metrics "pop_distance";
    h_ops_insert = Obs.Metrics.histogram metrics "ops_insert";
    h_ops_delete = Obs.Metrics.histogram metrics "ops_delete";
    h_ops_subst = Obs.Metrics.histogram metrics "ops_subst";
    h_ops_relax_beta = Obs.Metrics.histogram metrics "ops_relax_beta";
    h_ops_relax_gamma = Obs.Metrics.histogram metrics "ops_relax_gamma";
    prov = (if options.Options.provenance then Some (Provenance.create ()) else None);
    seed_beta = options.Options.costs.beta;
  }

(* Append a slice to the current range (the callback of the slice reads). *)
let add_slice t arr lo hi =
  let i = 2 * t.nslices in
  t.rarr <- arr;
  t.slices.(i) <- lo;
  t.slices.(i + 1) <- hi;
  t.nslices <- t.nslices + 1;
  t.stats.edges_scanned <- t.stats.edges_scanned + (hi - lo)

(* [NeighboursByEdge] (§3.4): make the current range the nodes adjacent to
   [n] under a transition label, observing directionality.  Every label
   kind is read in place: a [Sym] label is one slice of [n]'s row; the
   wildcard [*] is the whole row (the paper issues Neighbors over the
   generic 'edge' type plus 'type', both ways) and [Any_dir] its outgoing
   or incoming half; [Type_to c] is the one [(n, type, c)] edge, if any;
   a [Sub_closure] is one slice per label, in the order given. *)
let fill_range t n (lbl : Nfa.tlabel) =
  Failpoints.check Failpoints.Graph_scan;
  let t0 = !Obs.Clock.now_ns () in
  let dir_of : Nfa.dir -> Graph.dir = function Fwd -> Graph.Out | Bwd -> Graph.In in
  t.nslices <- 0;
  (match lbl with
  | Nfa.Eps -> assert false (* the compiled automaton is ε-free *)
  | Nfa.Sym (d, a) -> Graph.row t.graph n a (dir_of d) t add_slice
  | Nfa.Any -> Graph.row_all t.graph n Graph.Both t add_slice
  | Nfa.Any_dir d -> Graph.row_all t.graph n (dir_of d) t add_slice
  | Nfa.Sub_closure (d, ls) ->
    if 2 * Array.length ls > Array.length t.slices then
      t.slices <- Array.make (2 * Array.length ls) 0;
    Array.iter (fun l -> Graph.row t.graph n l (dir_of d) t add_slice) ls
  | Nfa.Type_to c -> Graph.row_to t.graph n (Graph.type_label t.graph) c t add_slice);
  t.rlbl <- lbl;
  t.stats.scan_ns <- t.stats.scan_ns + (!Obs.Clock.now_ns () - t0)

let enqueue t ~dist ~final entry bytes =
  Dr_queue.push t.dr ~dist ~final entry;
  if Dr_queue.size t.dr > t.stats.peak_queue then t.stats.peak_queue <- Dr_queue.size t.dr;
  t.dr_bytes <- t.dr_bytes + bytes;
  Governor.charge_mem t.governor bytes

(* Remove the top entry, whose ledger charge is [bytes]. *)
let unqueue t bytes =
  ignore (Dr_queue.pop t.dr);
  t.dr_bytes <- t.dr_bytes - bytes;
  Governor.release_mem t.governor bytes

let push t ~dist ~final tup =
  match t.ceiling with
  | Some psi when dist > psi ->
    t.was_pruned <- true;
    t.stats.pruned <- t.stats.pruned + 1
  | _ ->
    (* The governor owns the tuple budget (cumulative across conjuncts and
       restarts); past the ceiling it trips and the GetNext loop unwinds at
       its next poll — no exception crosses the streaming surface.  The
       queued tuple is also charged against the memory budget, released at
       its pop. *)
    enqueue t ~dist ~final:(final && t.opts.Options.final_priority) (Tup tup) Mem.tuple_bytes;
    t.stats.pushes <- t.stats.pushes + 1;
    t.stats.materialised <- t.stats.materialised + 1;
    Governor.tick_tuples t.governor 1

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

(* The arena entry of [parent]'s successor [m] under [tr] (the one
   provenance branch on the hot path: off, it is the shared [no_parent]
   sentinel and nothing is allocated). *)
let step t (parent : tup) tr m =
  match prov_arena t with
  | None -> Provenance.no_parent
  | Some arena ->
    Governor.charge_mem t.governor Mem.prov_entry_bytes;
    Provenance.add arena ~parent:parent.prov ~node:m (Provenance.Step tr)

(* [parent]'s successors under [tr], at [dist]: the members of the current
   range not yet visited in state [tr.dst].  They are exactly the tuples an
   eager expansion would queue, so one allocation-free scan counts them
   into [pushes] and the tuple budget now; they are built only when
   [GetNext] reaches them.  Per slice, in range order, a lone member is
   pushed as a plain tuple, two or more as one cursor over the slice. *)
let offer t (parent : tup) (tr : Nfa.transition) dist =
  let s' = tr.Nfa.dst and v = parent.v in
  for k = 0 to t.nslices - 1 do
    let lo = t.slices.(2 * k) and hi = t.slices.((2 * k) + 1) in
    let count = ref 0 and last = ref 0 in
    for i = lo to hi - 1 do
      let m = Graph.target t.rarr i in
      if not (Triple_set.mem t.visited v m s') then begin
        incr count;
        last := m
      end
    done;
    if !count = 1 then
      push t ~dist ~final:false { v; n = !last; s = s'; fin = false; prov = step t parent tr !last }
    else if !count > 1 then begin
      enqueue t ~dist ~final:false (Cur { parent; tr; arr = t.rarr; lo; hi }) Mem.cursor_bytes;
      t.stats.pushes <- t.stats.pushes + !count;
      Governor.tick_tuples t.governor !count
    end
  done

(* [Succ (s, n)] for a popped [tup]: one {!offer} per transition leaving
   (s, n) in the product automaton H_R.  Out-transitions are sorted by
   label (Nfa.normalize), so consecutive identical labels share the range
   of the previous scan (§3.4).

   Distance-aware retrieval prunes here, before the neighbour lookup: a
   transition that would exceed the ψ ceiling never touches the graph store —
   this is where the §4.3 optimisation saves its work. *)
let iter_succ t tup ~dist =
  t.stats.succ_calls <- t.stats.succ_calls + 1;
  t.rlbl <- Nfa.Eps;
  List.iter
    (fun (tr : Nfa.transition) ->
      match t.ceiling with
      | Some psi when dist + tr.cost > psi ->
        t.was_pruned <- true;
        t.stats.pruned <- t.stats.pruned + 1
      | _ ->
        if tr.lbl <> t.rlbl then fill_range t tup.n tr.lbl;
        offer t tup tr (dist + tr.cost))
    (Nfa.out t.nfa tup.s)

(* Release a discarded evaluation's charges (levelled parts are opened and
   dropped once per psi level).  The [suppress] table is owned by the
   caller and keeps its own charges. *)
let close t =
  Governor.release_mem t.governor t.dr_bytes;
  t.dr_bytes <- 0;
  Governor.release_mem t.governor (Triple_set.length t.visited * Mem.visited_entry_bytes);
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
     returning short batches without finishing).

     With no distance-0 entry left, every distance-0 answer of the seeds
     drawn so far has been returned: [frontier] hears the seeder's frontier
     then, before each draw and after the loop. *)
  while
    Governor.poll t.governor
    && (not (Seeder.exhausted t.seeder))
    && not (Dr_queue.has_at t.dr 0)
  do
    (match t.frontier with Some f -> f (Seeder.frontier t.seeder) | None -> ());
    let t0 = !Obs.Clock.now_ns () in
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
    if Obs.Flight.enabled () then
      Obs.Flight.complete ~cat:"seed" ~start_ns:t0
        ~args:[ ("seeds", Obs.Flight.Num (List.length batch)) ]
        "seed.batch"
  done;
  match t.frontier with
  | Some f when not (Dr_queue.has_at t.dr 0) -> f (Seeder.frontier t.seeder)
  | _ -> ()

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

(* A tuple that passed the visited check: expand it (GetNext lines 9–13). *)
let expand t tup dist =
  Governor.charge_mem t.governor Mem.visited_entry_bytes;
  iter_succ t tup ~dist;
  match Nfa.final_weight t.nfa tup.s with
  | Some weight when annotation_matches t tup && not (already_answered t tup.v tup.n) ->
    push t ~dist:(dist + weight) ~final:true { tup with fin = true }
  | _ -> ()

let popped t dist =
  t.stats.pops <- t.stats.pops + 1;
  Obs.Metrics.observe t.h_pop_distance dist

let rec get_next t =
  if not (Governor.poll t.governor) then None
  else begin
  refill_if_needed t;
  match Dr_queue.peek t.dr with
  | None -> None (* seeder exhausted too, or everything pruned *)
  | Some (Cur c, dist, _) ->
    (* the cursor yields its last member, leaving D_R with it, before
       that member's successors land on top *)
    c.hi <- c.hi - 1;
    let m = Graph.target c.arr c.hi in
    if c.hi = c.lo then unqueue t Mem.cursor_bytes;
    let v = c.parent.v and s = c.tr.Nfa.dst in
    if Triple_set.add t.visited v m s then begin
      popped t dist;
      t.stats.materialised <- t.stats.materialised + 1;
      expand t { v; n = m; s; fin = false; prov = step t c.parent c.tr m } dist
    end
    else t.stats.drop_visited <- t.stats.drop_visited + 1;
    get_next t
  | Some (Tup tup, dist, _) when tup.fin ->
    unqueue t Mem.tuple_bytes;
    popped t dist;
    if already_answered t tup.v tup.n then begin
      t.stats.drop_dup <- t.stats.drop_dup + 1;
      get_next t
    end
    else Some (record_answer t tup dist)
  | Some (Tup tup, dist, _) ->
    unqueue t Mem.tuple_bytes;
    popped t dist;
    if Triple_set.add t.visited tup.v tup.n tup.s then expand t tup dist
    else t.stats.drop_visited <- t.stats.drop_visited + 1;
    get_next t
  end
