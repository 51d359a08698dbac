module Graph = Graphstore.Graph
module Interner = Graphstore.Interner
module Nfa = Automaton.Nfa

type answer = { x : int; y : int; dist : int; witness : Witness.t option }

type tup = { v : int; n : int; s : int; fin : bool; prov : int }
(* [fin] is carried in the tuple (not only as the D_R key) so that the
   final-priority ablation can disable priority popping without losing the
   final/non-final distinction.  [prov] is the tuple's provenance-arena
   index, [Provenance.no_parent] whenever provenance is off. *)

(* A D_R entry: a tuple, or a cursor — the successors of a popped parent
   tuple at one cost that [GetNext] has not reached yet.  The cursor keeps
   the parent's seed [v], state [s] and arena entry [prov], not the parent
   itself.  [segs] holds the successors' segments in push order, three
   ints each: the index of the transition in [outs.(s)] and a range
   [lo, hi) of the index [ent], the neighbours [Graph.target ent lo ..
   Graph.target ent (hi - 1)] (a lone successor is a range of one).  A
   cursor on top of its bucket's stack yields segment [top]'s member
   [hi - 1], the last remaining, and stays there until it yields its first
   segment's first member; its ledger charge, {!entry_bytes}, is released
   then. *)
type entry =
  | Tup of tup
  | Cur of { v : int; s : int; prov : int; segs : int array; mutable top : int; mutable hi : int }

let entry_bytes segs = Mem.cursor_bytes + (Array.length segs / 3 * Mem.segment_bytes)

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
  ent : Graph.entries; (* the index: every slice is a range of it *)
  (* [Succ]'s automaton, read once at open: each state's out-transitions
     ([outs], sorted by label) and its runs of consecutive transitions with
     one label, run [r] of state [s] from [runs.(s).(r)] to
     [runs.(s).(r + 1) - 1]. *)
  outs : Nfa.transition array array;
  runs : int array array;
  (* The U-cache of §3.4: the neighbour range of the expanding node under
     the current run's label, [nslices] slices of [ent], slice [i] from
     [slices.(2i)] to [slices.(2i + 1)] (one per label of a
     [Sub_closure]). *)
  slices : int array;
  mutable nslices : int;
  (* The counting scan's buffers, sized at open so that an expansion
     allocates nothing but its entries: the index [live.(q)] of the run's
     [q]th unpruned transition; per (transition, slice) cell
     [q * nslices + k], the members not yet visited [count] and the index
     of the last of them [last]; and the expansion's segments so far,
     [nsegs] triples [(transition, lo, hi)] in [segs]. *)
  live : int array;
  count : int array;
  last : int array;
  segs : int array;
  mutable nsegs : int;
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
  (* [find], not [intern]: a label never interned is no class, and opening
     a conjunct must not grow the graph's interner *)
  match Interner.find interner (Graph.node_label graph oid) with
  | Some label_id when Ontology.is_class ontology label_id ->
    List.filter_map
      (fun (cls, depth) ->
        match Graph.find_node graph (Interner.name interner cls) with
        | Some node -> Some (node, depth * beta)
        | None -> None)
      (Ontology.ancestors_by_specificity ontology label_id)
  | _ -> [ (oid, 0) ]

(* The starts of [trs]'s runs of consecutive transitions with one label,
   then its length. *)
let runs_of (trs : Nfa.transition array) =
  let n = Array.length trs in
  let starts = ref [ n ] in
  for j = n - 1 downto 0 do
    if j = 0 || trs.(j).lbl <> trs.(j - 1).lbl then starts := j :: !starts
  done;
  Array.of_list !starts

let open_ ~graph ~ontology ~options ?governor ?metrics ?ceiling ?suppress ?frontier
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
      Seeder.of_initial_state ~governor ~ascending:(frontier <> None) ~graph ~nfa ~batch_size ()
  in
  let outs = Array.init (Nfa.n_states nfa) (fun s -> Array.of_list (Nfa.out nfa s)) in
  let runs = Array.map runs_of outs in
  (* the buffers' sizes: the longest run, the most slices, the most
     (transition, slice) cells of one run and of one expansion *)
  let slices_of : Nfa.tlabel -> int = function Nfa.Sub_closure (_, ls) -> Array.length ls | _ -> 1 in
  let max_run = ref 1 and max_slices = ref 1 and max_cells = ref 1 and max_segs = ref 1 in
  Array.iteri
    (fun s (trs : Nfa.transition array) ->
      let total = ref 0 in
      for r = 0 to Array.length runs.(s) - 2 do
        let len = runs.(s).(r + 1) - runs.(s).(r) and ns = slices_of trs.(runs.(s).(r)).lbl in
        max_run := max !max_run len;
        max_slices := max !max_slices ns;
        max_cells := max !max_cells (len * ns);
        total := !total + (len * ns)
      done;
      max_segs := max !max_segs !total)
    outs;
  {
    graph;
    nfa;
    dr = Dr_queue.create ();
    dr_bytes = 0;
    visited = Triple_set.create ~states:(Nfa.n_states nfa) 1024;
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
    ent = Graph.entries graph;
    outs;
    runs;
    slices = Array.make (2 * !max_slices) 0;
    nslices = 0;
    live = Array.make !max_run 0;
    count = Array.make !max_cells 0;
    last = Array.make !max_cells 0;
    segs = Array.make (3 * !max_segs) 0;
    nsegs = 0;
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
let add_slice t _ lo hi =
  let i = 2 * t.nslices in
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
  | Nfa.Sub_closure (d, ls) -> Array.iter (fun l -> Graph.row t.graph n l (dir_of d) t add_slice) ls
  | Nfa.Type_to c -> Graph.row_to t.graph n (Graph.type_label t.graph) c t add_slice);
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

(* The arena entry of the successor [m] under [tr] of the tuple whose
   entry is [parent] (the one provenance branch on the hot path: off, it is
   the shared [no_parent] sentinel and nothing is allocated). *)
let step t parent tr m =
  match prov_arena t with
  | None -> Provenance.no_parent
  | Some arena ->
    Governor.charge_mem t.governor Mem.prov_entry_bytes;
    Provenance.add arena ~parent ~node:m (Provenance.Step tr)

(* The counting scan of one run of state [s], whose [nlive] unpruned
   transitions are in [live]: for each (transition, slice) cell, the
   members of the current range not yet visited in the transition's
   destination state.  Each member is looked up in [visited] once.  A
   member with no visited state counts in every cell of its slice, which is
   added once per slice; otherwise each transition tests its state's bit. *)
let count_run t v s nlive =
  let ns = t.nslices and outs = t.outs.(s) in
  for c = 0 to (nlive * ns) - 1 do
    t.count.(c) <- 0
  done;
  for k = 0 to ns - 1 do
    let fresh = ref 0 and last_fresh = ref (-1) in
    for i = t.slices.(2 * k) to t.slices.((2 * k) + 1) - 1 do
      let slot = Triple_set.find t.visited v (Graph.target t.ent i) in
      if slot < 0 then begin
        incr fresh;
        last_fresh := i
      end
      else begin
        for q = 0 to nlive - 1 do
          if not (Triple_set.slot_mem t.visited slot outs.(t.live.(q)).Nfa.dst) then begin
            let c = (q * ns) + k in
            t.count.(c) <- t.count.(c) + 1;
            t.last.(c) <- i
          end
        done
      end
    done;
    for q = 0 to nlive - 1 do
      let c = (q * ns) + k in
      if !fresh > 0 && (t.count.(c) = 0 || !last_fresh > t.last.(c)) then t.last.(c) <- !last_fresh;
      t.count.(c) <- t.count.(c) + !fresh
    done
  done

(* Append the run's segments, transition by transition and slice by slice
   within one: a cell's unvisited members are exactly the tuples an eager
   expansion would queue, so they count into [pushes] and the tuple budget
   now, and are built only when [GetNext] reaches them.  A segment ends at
   its cell's last unvisited member; a lone member is a segment of one. *)
let add_segments t nlive =
  let ns = t.nslices in
  for q = 0 to nlive - 1 do
    for k = 0 to ns - 1 do
      let c = (q * ns) + k in
      let n = t.count.(c) in
      if n > 0 then begin
        let i = 3 * t.nsegs and last = t.last.(c) in
        t.segs.(i) <- t.live.(q);
        t.segs.(i + 1) <- (if n = 1 then last else t.slices.(2 * k));
        t.segs.(i + 2) <- last + 1;
        t.nsegs <- t.nsegs + 1;
        t.stats.pushes <- t.stats.pushes + n;
        Governor.tick_tuples t.governor n
      end
    done
  done

(* Queue the expansion's segments: one cursor per distinct cost, holding
   that cost's segments in push order.  A segment's transition is marked
   [-1] once it is copied into its cursor. *)
let queue_segments t (parent : tup) dist =
  let outs = t.outs.(parent.s) and segs = t.segs in
  for i = 0 to t.nsegs - 1 do
    if segs.(3 * i) >= 0 then begin
      let cost = outs.(segs.(3 * i)).Nfa.cost in
      let n = ref 0 in
      for i' = i to t.nsegs - 1 do
        if segs.(3 * i') >= 0 && outs.(segs.(3 * i')).Nfa.cost = cost then incr n
      done;
      (* one segment, the usual case, is an array literal: no C call *)
      let mine =
        if !n = 1 then [| segs.(3 * i); segs.((3 * i) + 1); segs.((3 * i) + 2) |]
        else Array.make (3 * !n) 0
      in
      let n = ref 0 in
      for i' = i to t.nsegs - 1 do
        let j = 3 * i' in
        if segs.(j) >= 0 && outs.(segs.(j)).Nfa.cost = cost then begin
          mine.(3 * !n) <- segs.(j);
          mine.((3 * !n) + 1) <- segs.(j + 1);
          mine.((3 * !n) + 2) <- segs.(j + 2);
          segs.(j) <- -1;
          incr n
        end
      done;
      let top = !n - 1 in
      enqueue t ~dist:(dist + cost) ~final:false
        (Cur { v = parent.v; s = parent.s; prov = parent.prov; segs = mine; top; hi = mine.((3 * top) + 2) })
        (entry_bytes mine)
    end
  done

(* [Succ (s, n)] for a popped [tup]: the transitions leaving (s, n) in the
   product automaton H_R, one run of same-label transitions at a time
   (Nfa.normalize sorts them by label).  A run's transitions share one
   range (the U-cache of §3.4) and one counting scan of it.

   Distance-aware retrieval prunes here, before the neighbour lookup: a
   transition that would exceed the ψ ceiling never touches the graph store —
   this is where the §4.3 optimisation saves its work. *)
let iter_succ t tup ~dist =
  t.stats.succ_calls <- t.stats.succ_calls + 1;
  let outs = t.outs.(tup.s) and runs = t.runs.(tup.s) in
  t.nsegs <- 0;
  for r = 0 to Array.length runs - 2 do
    let nlive = ref 0 in
    for j = runs.(r) to runs.(r + 1) - 1 do
      let tr = outs.(j) in
      match t.ceiling with
      | Some psi when dist + tr.cost > psi ->
        t.was_pruned <- true;
        t.stats.pruned <- t.stats.pruned + 1
      | _ ->
        t.live.(!nlive) <- j;
        incr nlive
    done;
    if !nlive > 0 then begin
      fill_range t tup.n outs.(runs.(r)).lbl;
      count_run t tup.v tup.s !nlive;
      add_segments t !nlive
    end
  done;
  queue_segments t tup dist

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
    (* the cursor yields its last member, leaving D_R with its first
       segment's first, before that member's successors land on top *)
    let seg = 3 * c.top in
    let tr = t.outs.(c.s).(c.segs.(seg)) in
    c.hi <- c.hi - 1;
    let m = Graph.target t.ent c.hi in
    if c.hi = c.segs.(seg + 1) then begin
      if c.top = 0 then unqueue t (entry_bytes c.segs)
      else begin
        c.top <- c.top - 1;
        c.hi <- c.segs.(seg - 1)
      end
    end;
    let v = c.v and s = tr.Nfa.dst in
    if Triple_set.add t.visited v m s then begin
      popped t dist;
      t.stats.materialised <- t.stats.materialised + 1;
      expand t { v; n = m; s; fin = false; prov = step t c.prov tr m } dist
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
