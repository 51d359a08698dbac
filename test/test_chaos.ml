(* Chaos property suite for the query governor and the failpoints.

   Randomized queries from the shared Instance_gen generator run under
   injected faults, deterministic deadlines, tuple budgets and answer caps.
   Every instance asserts the robustness contract of the governor:

   - no crash: [Engine.next] never lets an exception escape — injected
     faults and exhausted budgets all surface as a structured
     [Engine.termination];
   - informative termination: the reported reason matches the disturbance
     that was injected (a fault names its failpoint, a deadline reports
     [Deadline], a budget reports [Tuple_budget], ...);
   - valid ranked prefix: the emitted answers are an exact prefix of the
     undisturbed run's emission sequence (a governed run is the same
     deterministic computation, merely cut short), and the undisturbed run
     itself equals the brute-force product-Dijkstra oracle — so by
     transitivity every truncated run is a prefix of the oracle's ranked
     answer set;
   - monotone stats: every execution counter of the disturbed run is
     non-negative and bounded by the undisturbed run's counter (cutting a
     computation short can only do less work).

   The CI chaos job tightens the screws via the environment:
   [OMEGA_FAILPOINTS] overrides the armed spec of the fault group, and
   [OMEGA_CHAOS_DEADLINE_MS] adds a real-clock aggressive deadline to the
   deadline group. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module Engine = Core.Engine
module Governor = Core.Governor
module Failpoints = Core.Failpoints
module Options = Core.Options
open Instance_gen

(* A single-conjunct query projecting all conjunct variables; instances
   whose conjunct has no variable (constant subject and object) get a
   variable object so the query validates. *)
let query_of inst =
  let inst =
    match (inst.subj, inst.obj) with
    | (`Node _ | `Ghost), (`Node _ | `Ghost) -> { inst with obj = `Fresh }
    | _ -> inst
  in
  let c = conjunct_of inst in
  (inst, Q.make ~head:(Q.conjunct_vars c) [ c ])

(* The oracle's ranked answer set, projected to the query head exactly as
   the engine projects it: head variables to node labels, duplicate
   projected bindings deduplicated at their smallest distance. *)
let oracle_projected g (q : Q.t) raw =
  let c = List.hd q.Q.conjuncts in
  let best = Hashtbl.create 64 in
  List.iter
    (fun (x, y, d) ->
      let bind =
        (match c.Q.subj with Q.Var v -> [ (v, x) ] | Q.Const _ -> [])
        @ (match c.Q.obj with Q.Var v -> [ (v, y) ] | Q.Const _ -> [])
      in
      let key = List.map (fun v -> Graph.node_label g (List.assoc v bind)) q.Q.head in
      match Hashtbl.find_opt best key with
      | Some d' when d' <= d -> ()
      | _ -> Hashtbl.replace best key d)
    raw;
  Hashtbl.fold (fun k d acc -> (k, d) :: acc) best [] |> List.sort compare

let projected (answers : Engine.answer list) =
  List.sort compare
    (List.map (fun (a : Engine.answer) -> (List.map snd a.Engine.bindings, a.Engine.distance)) answers)

let is_list_prefix ~of_:full prefix =
  let rec go = function
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: p, b :: f -> a = b && go (p, f)
  in
  go (prefix, full)

let non_decreasing (answers : Engine.answer list) =
  let rec go hi = function
    | [] -> true
    | (a : Engine.answer) :: rest -> a.Engine.distance >= hi && go a.Engine.distance rest
  in
  go 0 answers

(* Field-wise [chaos <= clean]: a run cut short can only have done less. *)
let stats_bounded ~(chaos : Core.Exec_stats.t) ~(clean : Core.Exec_stats.t) =
  let open Core.Exec_stats in
  chaos.pushes >= 0 && chaos.pops >= 0 && chaos.pops <= chaos.pushes
  && chaos.pushes <= clean.pushes && chaos.pops <= clean.pops
  && chaos.succ_calls <= clean.succ_calls
  && chaos.edges_scanned <= clean.edges_scanned
  && chaos.batches <= clean.batches && chaos.seeds <= clean.seeds
  && chaos.answers <= clean.answers && chaos.peak_queue <= clean.peak_queue
  && chaos.restarts <= clean.restarts && chaos.pruned <= clean.pruned

(* The consistency every disturbed outcome must satisfy against its clean
   counterpart, whatever the disturbance was. *)
let outcome_consistent ~(clean : Engine.outcome) (chaos : Engine.outcome) =
  is_list_prefix ~of_:clean.Engine.answers chaos.Engine.answers
  && non_decreasing chaos.Engine.answers
  && stats_bounded ~chaos:chaos.Engine.stats ~clean:clean.Engine.stats
  &&
  match chaos.Engine.termination with
  | Engine.Completed -> true
  | Engine.Exhausted e ->
    e.answers = List.length chaos.Engine.answers && e.tuples >= 0 && e.elapsed_ns >= 0
  | Engine.Rejected _ ->
    (* no admission limits are configured in these groups *)
    false

(* The clean (ungoverned, fault-free) run, checked against the oracle. *)
let clean_run g k options q =
  let clean = Engine.run ~graph:g ~ontology:k ~options q in
  let complete = clean.Engine.termination = Engine.Completed in
  let raw = Oracle.answers g k options (List.hd q.Q.conjuncts) in
  let agrees = projected clean.Engine.answers = oracle_projected g q raw in
  (clean, complete && agrees)

(* --- injected faults --------------------------------------------------- *)

let env_fault_points =
  match Sys.getenv_opt Failpoints.env_var with
  | Some s when String.trim s <> "" -> (
    match Failpoints.parse s with
    | Ok (points, _) -> Some points
    | Error msg -> failwith (Failpoints.env_var ^ ": " ^ msg))
  | _ -> None

let point_names = List.map Failpoints.point_name Failpoints.all_points

let fault_prop name ~count ~mode =
  QCheck2.Test.make ~name ~count
    QCheck2.Gen.(
      triple (gen_instance ~mode) (int_bound 1_000_000)
        (map (List.nth [ 0.002; 0.01; 0.03 ]) (int_bound 2)))
    (fun (inst, seed, prob) ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let options = Options.default in
      let clean, clean_ok = clean_run g k options q in
      let points =
        match env_fault_points with
        | Some points -> points
        | None -> List.map (fun p -> (p, prob)) Failpoints.all_points
      in
      Failpoints.arm ~seed points;
      let chaos =
        Fun.protect
          ~finally:(fun () -> Failpoints.disarm ())
          (fun () -> Engine.run ~graph:g ~ontology:k ~options q)
      in
      let reason_ok =
        match chaos.Engine.termination with
        | Engine.Completed -> true
        | Engine.Exhausted { reason = Governor.Fault p; _ } -> List.mem p point_names
        | Engine.Exhausted _ | Engine.Rejected _ -> false
      in
      clean_ok && reason_ok && outcome_consistent ~clean chaos)

let fault_exact = fault_prop "faults: exact, prefix + fault termination" ~count:30 ~mode:Q.Exact
let fault_approx = fault_prop "faults: APPROX, prefix + fault termination" ~count:50 ~mode:Q.Approx
let fault_relax = fault_prop "faults: RELAX, prefix + fault termination" ~count:50 ~mode:Q.Relax

(* --- deadlines --------------------------------------------------------- *)

(* Deterministic deadlines: a fake counter clock advances 97 "nanoseconds"
   per read, so a random [timeout_ns] cuts the run after a reproducible
   number of governor clock reads — no wall-clock flakiness.  When
   OMEGA_CHAOS_DEADLINE_MS is set (the CI chaos job), a second real-clock
   pass runs the same instance under that aggressive wall-clock deadline. *)
let env_deadline_ms =
  match Sys.getenv_opt "OMEGA_CHAOS_DEADLINE_MS" with
  | Some s -> int_of_string_opt (String.trim s)
  | None -> None

let restore_clock () = Obs.Clock.now_ns := fun () -> 0

let deadline_reason_ok (o : Engine.outcome) =
  match o.Engine.termination with
  | Engine.Completed -> true
  | Engine.Exhausted { reason = Governor.Deadline; elapsed_ns; _ } -> elapsed_ns > 0
  | Engine.Exhausted _ | Engine.Rejected _ -> false

let deadline_prop =
  QCheck2.Test.make ~name:"deadlines: prefix + Deadline termination (fake clock)" ~count:60
    QCheck2.Gen.(pair (gen_instance ~mode:Q.Approx) (int_bound 30_000))
    (fun (inst, timeout_ns) ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let clean, clean_ok = clean_run g k Options.default q in
      let options = { Options.default with Options.timeout_ns = Some timeout_ns } in
      let chaos =
        let counter = ref 0 in
        Obs.Clock.now_ns :=
          (fun () ->
            incr counter;
            !counter * 97);
        Fun.protect ~finally:restore_clock (fun () -> Engine.run ~graph:g ~ontology:k ~options q)
      in
      let real_ok =
        match env_deadline_ms with
        | None -> true
        | Some ms ->
          Obs.Clock.now_ns := (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
          let aggressive =
            Fun.protect ~finally:restore_clock (fun () ->
                Engine.run ~graph:g ~ontology:k
                  ~options:{ Options.default with Options.timeout_ns = Some (ms * 1_000_000) }
                  q)
          in
          deadline_reason_ok aggressive && outcome_consistent ~clean aggressive
      in
      clean_ok && deadline_reason_ok chaos && outcome_consistent ~clean chaos && real_ok)

(* --- tuple budgets and answer caps ------------------------------------- *)

let budget_prop =
  QCheck2.Test.make ~name:"budgets: prefix + Tuple_budget/Answer_limit termination" ~count:60
    QCheck2.Gen.(triple (gen_instance ~mode:Q.Approx) bool (int_range 1 400))
    (fun (inst, by_answers, cap) ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let clean, clean_ok = clean_run g k Options.default q in
      let options =
        if by_answers then
          { Options.default with Options.max_answers = Some (min cap 50) }
        else { Options.default with Options.max_tuples = Some cap }
      in
      let chaos = Engine.run ~graph:g ~ontology:k ~options q in
      let reason_ok =
        match (chaos.Engine.termination, by_answers) with
        | Engine.Completed, _ -> true
        | Engine.Exhausted { reason = Governor.Answer_limit; _ }, true ->
          List.length chaos.Engine.answers = min cap 50
        | Engine.Exhausted { reason = Governor.Tuple_budget; _ }, false -> true
        | (Engine.Exhausted _ | Engine.Rejected _), _ -> false
      in
      clean_ok && reason_ok && outcome_consistent ~clean chaos)

(* --- memory budgets ---------------------------------------------------- *)

(* The graceful-degradation contract: under a byte budget the run may drop
   provenance arenas and decline ψ escalations before terminating with
   [Memory_budget], but the answers it did emit are an exact ranked prefix
   of the clean run's emission sequence.  Witnesses are excluded from the
   prefix comparison — dropping an arena (stage 1) legitimately loses them
   without affecting bindings or distances. *)
let strip (a : Engine.answer) = (a.Engine.bindings, a.Engine.distance)

let memory_prop ~name ~distance_aware ~provenance =
  QCheck2.Test.make ~name ~count:50
    QCheck2.Gen.(pair (gen_instance ~mode:Q.Approx) (int_range 2_000 60_000))
    (fun (inst, cap) ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let base = { Options.default with Options.distance_aware; provenance } in
      let clean, clean_ok = clean_run g k base q in
      let options = { base with Options.max_memory_bytes = Some cap } in
      let chaos = Engine.run ~graph:g ~ontology:k ~options q in
      let stats = chaos.Engine.stats in
      let reason_ok =
        match chaos.Engine.termination with
        | Engine.Completed -> true
        | Engine.Exhausted { reason = Governor.Memory_budget; _ } ->
          stats.Core.Exec_stats.mem_bytes_peak > 0
        | Engine.Exhausted _ | Engine.Rejected _ -> false
      in
      clean_ok && reason_ok
      && is_list_prefix
           ~of_:(List.map strip clean.Engine.answers)
           (List.map strip chaos.Engine.answers)
      && non_decreasing chaos.Engine.answers
      && stats_bounded ~chaos:stats ~clean:clean.Engine.stats
      && stats.Core.Exec_stats.degrade_drop_provenance >= 0
      && stats.Core.Exec_stats.degrade_shrink_psi >= 0)

let memory_plain =
  memory_prop ~name:"memory: prefix + Memory_budget termination" ~distance_aware:false
    ~provenance:false

let memory_provenance =
  memory_prop ~name:"memory: prefix with provenance degradation (stage 1)" ~distance_aware:false
    ~provenance:true

let memory_distance_aware =
  memory_prop ~name:"memory: prefix under distance-aware ψ shrinking (stage 2)"
    ~distance_aware:true ~provenance:false

(* The bucket the canonical order holds is charged to the ledger.  On a
   circulant [p] graph with a single [q] edge, APPROX [(?X, q, ?Y)] has one
   answer at distance 0 and hundreds at each distance above.  Under a
   budget equal to the sequential run's peak the sequential run completes,
   but at domains 2 the staged buckets carry the ledger past it: the run
   trips [Memory_budget] with a bucket open, emits nothing from it, and
   what it did emit is an exact ranked prefix. *)
let staged_bucket_test () =
  let n = 40 and degree = 6 in
  let g = Graph.create () in
  for i = 0 to n - 1 do
    ignore (Graph.add_node g (Printf.sprintf "n%d" i))
  done;
  for i = 0 to n - 1 do
    for j = 1 to degree do
      Graph.add_edge_s g i "p" ((i + j) mod n)
    done
  done;
  Graph.add_edge_s g 0 "q" 1;
  Graph.freeze g;
  let k = Ontology.create (Graph.interner g) in
  let c = List.hd (Core.Query_parser.parse "(?X, ?Y) <- APPROX (?X, q, ?Y)").Q.conjuncts in
  let run domains governor =
    let options = { Options.default with Options.domains } in
    let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options ~governor c in
    let rec drain acc =
      match Core.Evaluator.next ev with
      | Some (a : Core.Conjunct.answer) -> drain ((a.dist, a.x, a.y) :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  let sequential = Governor.unlimited () in
  let clean = List.sort compare (run 1 sequential) in
  let at d l = List.length (List.filter (fun (d', _, _) -> d' = d) l) in
  Alcotest.(check bool) "distance 1 outnumbers distance 0" true (at 1 clean > 100 * at 0 clean);
  let budget = Governor.mem_peak sequential in
  let fits = Governor.create ~max_memory_bytes:budget () in
  ignore (run 1 fits);
  Alcotest.(check bool) "the sequential run fits its own peak" true (Governor.tripped fits = None);
  let governor = Governor.create ~max_memory_bytes:budget () in
  let got = run 2 governor in
  Alcotest.(check bool) "memory-budget trip at domains 2" true
    (Governor.tripped governor = Some Governor.Memory_budget);
  Alcotest.(check bool) "an exact ranked prefix" true (is_list_prefix ~of_:clean got);
  Alcotest.(check bool) "nothing from the open bucket" true
    (List.for_all (fun (d, _, _) -> d = 0 || at d got = at d clean) got)

(* One expansion of a hub must not carry the ledger far past the budget.
   The hub's APPROX expansion reaches its 50k neighbours through the exact
   [p] transition and the [*] edits; the budget trips inside that
   expansion's neighbourhood at the latest, so the peak may exceed the
   budget by at most one expansion's charge: a visited entry, a final
   tuple, one queue entry (cursor or tuple) and arena entry per automaton
   transition, and one copy of the hub's wildcard row. *)
let hub_budget_test () =
  let degree = 50_000 and budget = 1 lsl 20 in
  let g = Graph.create ~initial_nodes:(degree + 1) () in
  let hub = Graph.add_node g "hub" in
  let p = Graphstore.Interner.intern (Graph.interner g) "p" in
  for i = 1 to degree do
    Graph.add_edge g hub p (Graph.add_node g (Printf.sprintf "n%d" i))
  done;
  Graph.freeze g;
  let k = Ontology.create (Graph.interner g) in
  let q = Q.single ~mode:Q.Approx (Q.Const "hub") (Rpq_regex.Regex.lbl "p") (Q.Var "X") in
  let options = { Options.default with Options.max_memory_bytes = Some budget } in
  let transitions =
    (List.hd (Engine.explain ~graph:g ~ontology:k ~options q).Obs.Explain.conjuncts)
      .Obs.Explain.transitions
  in
  let module Mem = Core.Mem in
  let expansion =
    Mem.visited_entry_bytes + Mem.tuple_bytes
    + (transitions * (max Mem.cursor_bytes Mem.tuple_bytes + Mem.prov_entry_bytes))
    + (Mem.word * degree)
  in
  let o = Engine.run ~graph:g ~ontology:k ~options q in
  (match o.Engine.termination with
  | Engine.Exhausted { reason = Governor.Memory_budget; _ } -> ()
  | t -> Alcotest.failf "expected a memory-budget trip, got %a" Engine.pp_termination t);
  let peak = o.Engine.stats.Core.Exec_stats.mem_bytes_peak in
  if peak > budget + expansion then
    Alcotest.failf "ledger peaked at %d bytes: over the %d-byte budget by more than one \
                    expansion (%d bytes)" peak budget expansion

(* A cursor's ledger charge does not depend on its range: the hub's
   neighbours are walked where they lie in the index, never copied.  So
   the ledger's peak up to the first answer of an APPROX query from a hub
   is the same at any hub degree. *)
let cursor_ledger_test () =
  let peak_to_first_answer degree =
    let g = Graph.create ~initial_nodes:(degree + 1) () in
    let hub = Graph.add_node g "hub" in
    let p = Graphstore.Interner.intern (Graph.interner g) "p" in
    for i = 1 to degree do
      Graph.add_edge g hub p (Graph.add_node g (Printf.sprintf "n%d" i))
    done;
    Graph.freeze g;
    let k = Ontology.create (Graph.interner g) in
    let q = Q.single ~mode:Q.Approx (Q.Const "hub") (Rpq_regex.Regex.lbl "p") (Q.Var "X") in
    let st = Engine.open_query ~graph:g ~ontology:k q in
    if Engine.next st = None then Alcotest.fail "expected an answer";
    let peak = (Engine.stream_stats st).Core.Exec_stats.mem_bytes_peak in
    Engine.close st;
    peak
  in
  let small = peak_to_first_answer 1_000 and large = peak_to_first_answer 50_000 in
  if large > small then
    Alcotest.failf "ledger peak grew with the hub degree: %d bytes at 1,000, %d at 50,000" small
      large

(* --- admission control -------------------------------------------------- *)

(* A rejected query must never touch the graph; a generously-admitted query
   must behave exactly like an unvetted one. *)
let admission_prop =
  QCheck2.Test.make ~name:"admission: rejection is free, generous admission is invisible"
    ~count:50
    (gen_instance ~mode:Q.Approx)
    (fun inst ->
      let inst, q = query_of inst in
      let g, k = build inst in
      let clean, clean_ok = clean_run g k Options.default q in
      let rejected =
        Engine.run ~graph:g ~ontology:k
          ~options:{ Options.default with Options.max_states = Some 0 }
          q
      in
      let rejected_ok =
        match rejected.Engine.termination with
        | Engine.Rejected _ ->
          rejected.Engine.answers = []
          && rejected.Engine.stats.Core.Exec_stats.edges_scanned = 0
          && rejected.Engine.stats.Core.Exec_stats.pushes = 0
          && rejected.Engine.stats.Core.Exec_stats.seeds = 0
        | Engine.Completed | Engine.Exhausted _ -> false
      in
      let admitted =
        Engine.run ~graph:g ~ontology:k
          ~options:
            {
              Options.default with
              Options.max_states = Some 1_000_000;
              max_product_est = Some 1_000_000_000;
            }
          q
      in
      clean_ok && rejected_ok
      && admitted.Engine.termination = Engine.Completed
      && projected admitted.Engine.answers = projected clean.Engine.answers
      && admitted.Engine.stats.Core.Exec_stats.admission_est_states > 0)

(* --- multi-conjunct joins under chaos ---------------------------------- *)

(* Two conjuncts sharing ?Y, evaluated through the ranked join, with faults
   and a tuple budget at once.  No oracle here (the clean join's correctness
   is test_join's business): the claims are no-crash, prefix and stats. *)
let join_prop =
  QCheck2.Test.make ~name:"joins: prefix + structured termination under faults" ~count:40
    QCheck2.Gen.(
      quad (gen_instance ~mode:Q.Approx) gen_regex (int_bound 1_000_000) (int_range 50 2_000))
    (fun (inst, regex2, seed, budget) ->
      let inst = { inst with subj = `Var; obj = `Fresh } in
      let g, k = build inst in
      let c1 = conjunct_of inst in
      let c2 = Q.conjunct ~mode:Q.Exact (Q.Var "Y") regex2 (Q.Var "Z") in
      let q = Q.make ~head:[ "X"; "Z" ] [ c1; c2 ] in
      let limit = 150 in
      let clean = Engine.run ~graph:g ~ontology:k ~limit q in
      Failpoints.arm ~seed [ (Failpoints.Join_pull, 0.005); (Failpoints.Graph_scan, 0.002) ];
      let chaos =
        Fun.protect
          ~finally:(fun () -> Failpoints.disarm ())
          (fun () ->
            Engine.run ~graph:g ~ontology:k
              ~options:{ Options.default with Options.max_tuples = Some budget }
              ~limit q)
      in
      let reason_ok =
        match chaos.Engine.termination with
        | Engine.Completed -> true
        | Engine.Exhausted { reason = Governor.Fault p; _ } -> List.mem p point_names
        | Engine.Exhausted { reason = Governor.Tuple_budget | Governor.Answer_limit; _ } -> true
        | Engine.Exhausted { reason = Governor.Deadline | Governor.Memory_budget; _ } -> false
        | Engine.Rejected _ -> false
      in
      non_decreasing clean.Engine.answers && reason_ok && outcome_consistent ~clean chaos)

(* --- parallel executions under chaos ----------------------------------- *)

(* The same robustness contract on the canonical order
   ([options.domains > 1]): the clean run agrees with the oracle, and a
   faulted / deadlined / budgeted run is an exact element-wise prefix of
   the clean run's emission sequence (the canonical (dist, x, y) order —
   see test_par).  The taxonomy property pins the stronger claim behind
   the CLI's exit codes 3/4/5/6: for deterministic disturbances (tuple
   budgets, answer caps, certain faults) the termination *kind* is
   identical regardless of [domains], because the total work and the
   answer set are domain-count independent. *)

let gen_domains = QCheck2.Gen.(map (List.nth [ 2; 4 ]) (int_bound 1))

(* Every parallel property runs under the flight recorder with the online
   monitor armed: an invariant violation fails the instance with its
   auto-dumped postmortem path, and a plain property failure also leaves a
   dump behind for `omega_report --flight`. *)
let monitored prop arg =
  Obs.Flight.enable ~detail:true ();
  Obs.Flight.Monitor.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.Monitor.disable ();
      Obs.Flight.disable ();
      Obs.Flight.clear ())
    (fun () ->
      let dump_now what =
        let path = Filename.temp_file "omega-flight-chaos" ".jsonl" in
        (try ignore (Obs.Flight.dump path) with Sys_error _ -> ());
        Printf.eprintf "flight dump (%s): %s\n%!" what path;
        path
      in
      let ok =
        try prop arg
        with e ->
          ignore (dump_now "property raised");
          raise e
      in
      (match Obs.Flight.Monitor.first_violation () with
      | Some v ->
        QCheck2.Test.fail_reportf "flight invariant violation: %s at seq %d — postmortem dump: %s"
          v.Obs.Flight.v_rule v.Obs.Flight.v_seq
          (Option.value ~default:"<unwritable>" (Obs.Flight.Monitor.last_dump_path ()))
      | None -> ());
      if not ok then
        QCheck2.Test.fail_reportf "parallel property failed — flight dump: %s"
          (dump_now "property failed");
      ok)

(* only variable/variable conjuncts take the canonical order — anything
   else would silently fall back to the (already covered) sequential
   path *)
let par_inst inst = { inst with subj = `Var; obj = `Fresh }

let par_fault_prop =
  QCheck2.Test.make ~name:"parallel faults: prefix of clean parallel run" ~count:25
    QCheck2.Gen.(
      quad (gen_instance ~mode:Q.Approx) gen_domains (int_bound 1_000_000)
        (map (List.nth [ 0.002; 0.01; 0.03 ]) (int_bound 2)))
    (monitored (fun (inst, domains, seed, prob) ->
      let inst, q = query_of (par_inst inst) in
      let g, k = build inst in
      let options = { Options.default with Options.domains } in
      let clean, clean_ok = clean_run g k options q in
      Failpoints.arm ~seed (List.map (fun p -> (p, prob)) Failpoints.all_points);
      let chaos =
        Fun.protect
          ~finally:(fun () -> Failpoints.disarm ())
          (fun () -> Engine.run ~graph:g ~ontology:k ~options q)
      in
      let reason_ok =
        match chaos.Engine.termination with
        | Engine.Completed -> true
        | Engine.Exhausted { reason = Governor.Fault p; _ } -> List.mem p point_names
        | Engine.Exhausted _ | Engine.Rejected _ -> false
      in
      clean_ok && reason_ok && outcome_consistent ~clean chaos))

(* The deterministic fake clock is an [Atomic] counter: every read
   advances it by exactly 97 fake nanoseconds. *)
let par_deadline_prop =
  QCheck2.Test.make ~name:"parallel deadlines: prefix + Deadline termination (atomic clock)"
    ~count:20
    QCheck2.Gen.(triple (gen_instance ~mode:Q.Approx) gen_domains (int_bound 30_000))
    (monitored (fun (inst, domains, timeout_ns) ->
      let inst, q = query_of (par_inst inst) in
      let g, k = build inst in
      let options = { Options.default with Options.domains } in
      let clean, clean_ok = clean_run g k options q in
      let chaos =
        let counter = Atomic.make 0 in
        Obs.Clock.now_ns := (fun () -> (Atomic.fetch_and_add counter 1 + 1) * 97);
        Fun.protect ~finally:restore_clock (fun () ->
            Engine.run ~graph:g ~ontology:k
              ~options:{ options with Options.timeout_ns = Some timeout_ns }
              q)
      in
      clean_ok && deadline_reason_ok chaos && outcome_consistent ~clean chaos))

let par_budget_prop =
  QCheck2.Test.make ~name:"parallel budgets: prefix + Tuple_budget/Answer_limit termination"
    ~count:25
    QCheck2.Gen.(quad (gen_instance ~mode:Q.Approx) gen_domains bool (int_range 1 400))
    (monitored (fun (inst, domains, by_answers, cap) ->
      let inst, q = query_of (par_inst inst) in
      let g, k = build inst in
      let base = { Options.default with Options.domains } in
      let clean, clean_ok = clean_run g k base q in
      let options =
        if by_answers then { base with Options.max_answers = Some (min cap 50) }
        else { base with Options.max_tuples = Some cap }
      in
      let chaos = Engine.run ~graph:g ~ontology:k ~options q in
      let reason_ok =
        match (chaos.Engine.termination, by_answers) with
        | Engine.Completed, _ -> true
        | Engine.Exhausted { reason = Governor.Answer_limit; _ }, true ->
          List.length chaos.Engine.answers = min cap 50
        | Engine.Exhausted { reason = Governor.Tuple_budget; _ }, false -> true
        | (Engine.Exhausted _ | Engine.Rejected _), _ -> false
      in
      clean_ok && reason_ok && outcome_consistent ~clean chaos))

let reason_kind (o : Engine.outcome) =
  match o.Engine.termination with
  | Engine.Completed -> "completed"
  | Engine.Exhausted { reason = Governor.Tuple_budget; _ } -> "tuple-budget"
  | Engine.Exhausted { reason = Governor.Deadline; _ } -> "deadline"
  | Engine.Exhausted { reason = Governor.Answer_limit; _ } -> "answer-limit"
  | Engine.Exhausted { reason = Governor.Memory_budget; _ } -> "memory-budget"
  | Engine.Exhausted { reason = Governor.Fault p; _ } -> "fault:" ^ p
  | Engine.Rejected _ -> "rejected"

(* Deterministic disturbances only: total tuple work and the answer set are
   the same at every domain count (the ascending seed walk reorders the
   same per-seed explorations), so whether a budget trips — and therefore
   the exit code the CLI derives — cannot depend on [domains].  A
   probability-1 seed fault likewise fires on the very first seed batch.
   (Probabilistic faults and real-clock deadlines are excluded by
   construction: their firing is genuinely timing-dependent.) *)
let par_taxonomy_prop =
  QCheck2.Test.make ~name:"parallel taxonomy: termination kind is domain-count independent"
    ~count:20
    QCheck2.Gen.(triple (gen_instance ~mode:Q.Approx) (int_bound 3) (int_range 1 400))
    (monitored (fun (inst, disturbance, cap) ->
      let inst, q = query_of (par_inst inst) in
      let g, k = build inst in
      let run domains =
        let options = { Options.default with Options.domains } in
        match disturbance with
        | 0 -> Engine.run ~graph:g ~ontology:k ~options q
        | 1 ->
          Engine.run ~graph:g ~ontology:k
            ~options:{ options with Options.max_tuples = Some cap }
            q
        | 2 ->
          Engine.run ~graph:g ~ontology:k
            ~options:{ options with Options.max_answers = Some (min cap 50) }
            q
        | _ ->
          Failpoints.arm [ (Failpoints.Seed_batch, 1.0) ];
          Fun.protect
            ~finally:(fun () -> Failpoints.disarm ())
            (fun () -> Engine.run ~graph:g ~ontology:k ~options q)
      in
      match List.map (fun n -> reason_kind (run n)) [ 1; 2; 4 ] with
      | k1 :: rest -> List.for_all (( = ) k1) rest
      | [] -> false))

(* --- the open bucket ---------------------------------------------------- *)

(* At [domains >= 2] the evaluator holds each distance bucket until the
   conjunct has moved past it.  A trip may cut a bucket short, so it must
   end the stream without releasing the open one: under any tuple budget
   the emitted answers are a prefix of the clean run, and every distance
   above 0 in them is whole (distance 0 is released below the seed
   frontier, where it is final). *)
let open_bucket_prop =
  QCheck2.Test.make ~name:"a trip never releases the open bucket" ~count:60
    QCheck2.Gen.(triple (gen_instance ~mode:Q.Approx) gen_domains (int_range 1 600))
    (fun (inst, domains, cap) ->
      let inst, q = query_of (par_inst inst) in
      let g, k = build inst in
      let options = { Options.default with Options.domains } in
      let clean, clean_ok = clean_run g k options q in
      let chaos =
        Engine.run ~graph:g ~ontology:k ~options:{ options with Options.max_tuples = Some cap } q
      in
      let at d (o : Engine.outcome) =
        List.length
          (List.filter (fun (a : Engine.answer) -> a.Engine.distance = d) o.Engine.answers)
      in
      clean_ok && outcome_consistent ~clean chaos
      && List.for_all
           (fun (a : Engine.answer) ->
             let d = a.Engine.distance in
             d = 0 || at d chaos = at d clean)
           chaos.Engine.answers)

(* --- born-tripped streams ---------------------------------------------- *)

(* A fault during query opening (RELAX ontology seeding) must yield a
   stream that reports the fault and streams nothing — not an exception. *)
let open_fault_test () =
  let g = Graph.create () in
  ignore (Graph.add_node g "C0");
  ignore (Graph.add_node g "n0");
  Graph.add_edge_s g 1 "p" 0;
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subclass k "C0" "C1";
  Graph.freeze g;
  let q = Q.single ~mode:Q.Relax (Q.Const "C0") (Rpq_regex.Regex.lbl "p") (Q.Var "Y") in
  Failpoints.arm [ (Failpoints.Ontology_lookup, 1.0) ];
  Fun.protect
    ~finally:(fun () -> Failpoints.disarm ())
    (fun () ->
      let st = Engine.open_query ~graph:g ~ontology:k q in
      Alcotest.(check (option reject)) "no answers from a born-tripped stream" None
        (Engine.next st);
      match Engine.status st with
      | Engine.Exhausted { reason = Governor.Fault "onto"; answers = 0; _ } -> ()
      | t -> Alcotest.failf "expected onto fault, got %a" Engine.pp_termination t)

(* Cancellation is immediate: after [Governor.cancel] the stream yields
   nothing more and reports the fault. *)
let cancel_test () =
  let inst =
    {
      n_base = 12;
      edges = List.init 40 (fun i -> (i mod 12, "p", (i * 7) mod 12));
      types = [];
      regex = Rpq_regex.Regex.star (Rpq_regex.Regex.lbl "p");
      mode = Q.Approx;
      subj = `Var;
      obj = `Fresh;
    }
  in
  let g, k = build inst in
  let q = Q.single ~mode:Q.Approx (Q.Var "X") inst.regex (Q.Var "Y") in
  let st = Engine.open_query ~graph:g ~ontology:k q in
  (match Engine.next st with
  | Some _ -> ()
  | None -> Alcotest.fail "expected at least one answer before cancelling");
  Governor.cancel ~reason:"client-disconnect" (Engine.governor st);
  Alcotest.(check (option reject)) "nothing after cancel" None (Engine.next st);
  match Engine.status st with
  | Engine.Exhausted { reason = Governor.Fault "client-disconnect"; _ } -> ()
  | t -> Alcotest.failf "expected cancellation fault, got %a" Engine.pp_termination t

let () =
  Alcotest.run "chaos"
    [
      ( "faults",
        [
          QCheck_alcotest.to_alcotest fault_exact;
          QCheck_alcotest.to_alcotest fault_approx;
          QCheck_alcotest.to_alcotest fault_relax;
        ] );
      ("deadlines", [ QCheck_alcotest.to_alcotest deadline_prop ]);
      ("budgets", [ QCheck_alcotest.to_alcotest budget_prop ]);
      ( "memory",
        [
          QCheck_alcotest.to_alcotest memory_plain;
          QCheck_alcotest.to_alcotest memory_provenance;
          QCheck_alcotest.to_alcotest memory_distance_aware;
          Alcotest.test_case "hub expansion stays within one expansion of the budget" `Quick
            hub_budget_test;
          Alcotest.test_case "a cursor's charge does not grow with its range" `Quick
            cursor_ledger_test;
          Alcotest.test_case "the staged bucket is charged at domains 2" `Quick staged_bucket_test;
        ] );
      ("admission", [ QCheck_alcotest.to_alcotest admission_prop ]);
      ("joins", [ QCheck_alcotest.to_alcotest join_prop ]);
      ( "parallel",
        [
          QCheck_alcotest.to_alcotest par_fault_prop;
          QCheck_alcotest.to_alcotest par_deadline_prop;
          QCheck_alcotest.to_alcotest par_budget_prop;
          QCheck_alcotest.to_alcotest par_taxonomy_prop;
          QCheck_alcotest.to_alcotest open_bucket_prop;
        ] );
      ( "edges",
        [
          Alcotest.test_case "fault while opening" `Quick open_fault_test;
          Alcotest.test_case "cooperative cancel" `Quick cancel_test;
        ] );
    ]
