(* The experiment harness: regenerates every table and figure of the paper's
   performance study (§4) on the synthetic L4All and YAGO-shaped workloads,
   plus Bechamel micro-benchmarks (one per table/figure).

     dune exec bench/main.exe                        # everything
     dune exec bench/main.exe -- --sections fig5,fig6 --scales L1,L2 --runs 3

   Timing protocol (as in §4.1): each query is run [runs]+1 times, the first
   run is discarded as cache warm-up, and the remainder are averaged.  Exact
   queries run to completion; APPROX/RELAX queries retrieve the top 100
   answers in ten batches of ten, and the reported time is the mean batch
   time.  YAGO APPROX queries run under a tuple budget standing in for the
   paper's 6 GB memory limit; exhausting it prints '?' as in Fig. 10. *)

module L4 = Datagen.L4all
module Yago = Datagen.Yago_sim
module Engine = Core.Engine
module Options = Core.Options
module Graph = Graphstore.Graph

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [ "fig2"; "fig3"; "fig5"; "fig6"; "fig7"; "fig8"; "yago-stats"; "fig10"; "fig11"; "opt1"; "opt2";
    "abl"; "abl-sat"; "flight"; "micro" ]

let sections = ref all_sections
let scales = ref L4.all_scales
let runs = ref 3
let yago_budget = ref 400_000
let yago_scale = ref 0.02
let json_mode = ref false

let parse_args () =
  let set_sections s = sections := String.split_on_char ',' s in
  let set_scales s =
    scales :=
      List.map
        (fun name ->
          match List.find_opt (fun sc -> L4.scale_name sc = name) L4.all_scales with
          | Some sc -> sc
          | None -> failwith (Printf.sprintf "unknown scale %s" name))
        (String.split_on_char ',' s)
  in
  let spec =
    [
      ("--sections", Arg.String set_sections, "  comma-separated sections (default: all)");
      ("--scales", Arg.String set_scales, "  comma-separated L4All scales (default: L1,L2,L3,L4)");
      ("--runs", Arg.Set_int runs, "  timed runs per query after warm-up (default: 3)");
      ("--yago-budget", Arg.Set_int yago_budget, "  tuple budget for YAGO APPROX queries");
      ("--yago-scale", Arg.Set_float yago_scale, "  YAGO generator scale factor (default: 0.02)");
      ( "--json",
        Arg.Set json_mode,
        "  additionally write one machine-readable BENCH_<section>.json per query-measuring \
         section (flight: BENCH_flight_off.jsonl and BENCH_flight_on.jsonl)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "omega benchmark harness"

let enabled name = List.mem name !sections

(* ------------------------------------------------------------------ *)
(* Workload caches                                                     *)
(* ------------------------------------------------------------------ *)

let l4_cache : (L4.scale, Graph.t * Ontology.t) Hashtbl.t = Hashtbl.create 4

let l4_graph scale =
  match Hashtbl.find_opt l4_cache scale with
  | Some gk -> gk
  | None ->
    let t0 = Unix.gettimeofday () in
    let gk = L4.generate_scale scale in
    Printf.printf "[gen] L4All %s: %d nodes, %d edges (%.2fs)\n%!" (L4.scale_name scale)
      (Graph.n_nodes (fst gk)) (Graph.n_edges (fst gk))
      (Unix.gettimeofday () -. t0);
    Hashtbl.add l4_cache scale gk;
    gk

let yago_cache = ref None

let yago_graph () =
  match !yago_cache with
  | Some gk -> gk
  | None ->
    let t0 = Unix.gettimeofday () in
    let params = { Yago.default_params with Yago.scale = !yago_scale } in
    let gk = Yago.generate ~params () in
    Printf.printf "[gen] YAGO-sim (scale %.3f): %d nodes, %d edges (%.2fs)\n%!" !yago_scale
      (Graph.n_nodes (fst gk)) (Graph.n_edges (fst gk))
      (Unix.gettimeofday () -. t0);
    yago_cache := Some gk;
    gk

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

type measured = {
  time_ms : float; (* protocol time, averaged over post-warm-up runs *)
  times_ms : float list; (* the individual post-warm-up protocol times *)
  count : int;
  tuples : int; (* D_R pushes of the counting run — the memory proxy *)
  mem_bytes_peak : int; (* Mem cost-model high-water mark of the counting run *)
  histogram : (int * int) list; (* distance -> #answers *)
  termination : Engine.termination; (* full reason, per run (budget/deadline/fault/...) *)
  gc : (string * int) list; (* per-query GC deltas of the counting run (words, collections) *)
}

(* The GC-delta counters of [Exec_stats] as a labelled list, in manifest
   order; the same four keys the audit log's "gc" object carries. *)
let gc_of (st : Core.Exec_stats.t) =
  [
    ("minor_words", st.Core.Exec_stats.gc_minor_words);
    ("major_words", st.Core.Exec_stats.gc_major_words);
    ("minor_collections", st.Core.Exec_stats.gc_minor_collections);
    ("major_collections", st.Core.Exec_stats.gc_major_collections);
  ]

(* table cell marker: '?' = tuple budget (as in Fig. 10), 'T' = deadline,
   'M' = memory budget, 'F' = injected fault, 'R' = rejected by admission
   control; completion and answer-limit print normally *)
let marker_of = function
  | Engine.Completed | Engine.Exhausted { reason = Core.Governor.Answer_limit; _ } -> None
  | Engine.Exhausted { reason = Core.Governor.Tuple_budget; _ } -> Some "?"
  | Engine.Exhausted { reason = Core.Governor.Deadline; _ } -> Some "T"
  | Engine.Exhausted { reason = Core.Governor.Memory_budget; _ } -> Some "M"
  | Engine.Exhausted { reason = Core.Governor.Fault _; _ } -> Some "F"
  | Engine.Rejected _ -> Some "R"

let histogram_of answers =
  let h = Hashtbl.create 8 in
  List.iter
    (fun (a : Engine.answer) ->
      Hashtbl.replace h a.Engine.distance
        (1 + Option.value ~default:0 (Hashtbl.find_opt h a.Engine.distance)))
    answers;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) h [] |> List.sort compare

let pp_histogram h =
  String.concat " " (List.map (fun (d, c) -> Printf.sprintf "%d:(%d)" d c) h)

let mode_name = function
  | Core.Query.Exact -> "exact"
  | Core.Query.Approx -> "approx"
  | Core.Query.Relax -> "relax"

let termination_string = function
  | Engine.Completed -> "completed"
  | Engine.Exhausted { reason; _ } -> Core.Governor.reason_string reason
  | Engine.Rejected _ -> "rejected"

(* One row of the BENCH_<section>.json results array (see
   bench/bench_schema.json, schema_version 2). *)
let json_row ?(extra = []) ~dataset ~scale ~query ~mode (m : measured) =
  let ns_of t = int_of_float (t *. 1e6) in
  let times = match m.times_ms with [] -> [ m.time_ms ] | l -> l in
  Obs.Json.Obj
    ([
       ("dataset", Obs.Json.String dataset);
       ("scale", Obs.Json.String scale);
       ("query", Obs.Json.String query);
       ("mode", Obs.Json.String (mode_name mode));
       ("mean_ns", Obs.Json.Int (ns_of m.time_ms));
       ("min_ns", Obs.Json.Int (ns_of (List.fold_left min infinity times)));
       ("max_ns", Obs.Json.Int (ns_of (List.fold_left max neg_infinity times)));
       ("answers", Obs.Json.Int m.count);
       ("tuples", Obs.Json.Int m.tuples);
       ("mem_bytes_peak", Obs.Json.Int m.mem_bytes_peak);
       ("gc", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) m.gc));
       ("termination", Obs.Json.String (termination_string m.termination));
       ( "marker",
         match marker_of m.termination with
         | Some mark -> Obs.Json.String mark
         | None -> Obs.Json.Null );
    ]
    @ extra)

let write_json ?(extra = []) ~section rows =
  if !json_mode then begin
    let doc =
      Obs.Json.Obj
        ([
           ("schema_version", Obs.Json.Int 2);
           ("section", Obs.Json.String section);
           ("runs", Obs.Json.Int !runs);
         ]
        @ extra
        @ [ ("results", Obs.Json.List rows) ])
    in
    let path = Printf.sprintf "BENCH_%s.json" section in
    Out_channel.with_open_text path (fun oc -> Obs.Json.to_channel oc doc);
    Printf.printf "[json] wrote %s (%d result(s))\n%!" path (List.length rows)
  end

(* Exact protocol: run to completion, [!runs]+1 times, discard the first. *)
let measure_exact ?(options = Options.default) (g, k) qtext =
  let once () =
    match Engine.run_string ~graph:g ~ontology:k ~options ~limit:max_int qtext with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  let outcome, _ = ms once in
  let times = List.init !runs (fun _ -> snd (ms once)) in
  {
    time_ms = mean times;
    times_ms = times;
    count = List.length outcome.Engine.answers;
    tuples = outcome.Engine.stats.Core.Exec_stats.pushes;
    mem_bytes_peak = outcome.Engine.stats.Core.Exec_stats.mem_bytes_peak;
    histogram = histogram_of outcome.Engine.answers;
    termination = outcome.Engine.termination;
    gc = gc_of outcome.Engine.stats;
  }

(* APPROX/RELAX protocol: initialisation, then batches 1..10 of 10 answers;
   report the mean batch time (averaged across runs), the total answers and
   the distance histogram. *)
let measure_flex (g, k) ~options qtext =
  let query =
    match Core.Query_parser.parse_result qtext with Ok q -> q | Error m -> failwith m
  in
  let once () =
    let stream = Engine.open_query ~graph:g ~ontology:k ~options query in
    let answers = ref [] in
    let batch_times = ref [] in
    (* a tripped stream just yields [None]: the batch loop runs to its end
       and [Engine.status] reports why the answers stopped *)
    for _batch = 1 to 10 do
      let (), t =
        ms (fun () ->
            for _ = 1 to 10 do
              match Engine.next stream with
              | Some a -> answers := a :: !answers
              | None -> ()
            done)
      in
      batch_times := t :: !batch_times
    done;
    let st = Engine.stream_stats stream in
    let pushes = st.Core.Exec_stats.pushes in
    let mem_peak = st.Core.Exec_stats.mem_bytes_peak in
    let status = Engine.status stream in
    (* the stream is abandoned after 10 batches: join any parallel domain
       pool it still holds *)
    Engine.close stream;
    (List.rev !answers, mean !batch_times, status, pushes, mem_peak, gc_of st)
  in
  let answers, _, termination, tuples, mem_bytes_peak, gc = once () in
  let batch_means =
    List.init !runs (fun _ ->
        let _, t, _, _, _, _ = once () in
        t)
  in
  {
    time_ms = mean batch_means;
    times_ms = batch_means;
    count = List.length answers;
    tuples;
    mem_bytes_peak;
    histogram = histogram_of answers;
    termination;
    gc;
  }

let yago_options (mode : Core.Query.mode) =
  match mode with
  | Core.Query.Approx -> { Options.default with Options.max_tuples = Some !yago_budget }
  | Core.Query.Exact | Core.Query.Relax -> Options.default

let header title = Printf.printf "\n================ %s ================\n%!" title

(* ------------------------------------------------------------------ *)
(* FIG2: class hierarchy characteristics                               *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "[FIG2] L4All class hierarchies (paper Fig. 2)";
  let _, k = l4_graph (List.hd !scales) in
  let interner = Ontology.interner k in
  Printf.printf "(paper: Episode 2/2.67, Subject 2/8, Occupation 4/4.08, EQ Level 2/3.89, Sector 1/21)\n";
  Printf.printf "%-36s %6s %12s\n" "Class hierarchy" "Depth" "Avg fan-out";
  List.iter
    (fun root ->
      let s = Ontology.class_hierarchy_stats k root in
      Printf.printf "%-36s %6d %12.2f\n"
        (Graphstore.Interner.name interner root)
        s.Ontology.depth s.Ontology.avg_fanout)
    (Ontology.class_roots k)

(* ------------------------------------------------------------------ *)
(* FIG3: L4All graph sizes                                             *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "[FIG3] L4All data graph sizes (paper Fig. 3)";
  Printf.printf
    "(paper: L1 2,691/19,856; L2 15,188/118,088; L3 68,544/558,972; L4 240,519/1,861,959)\n";
  Printf.printf "%-6s %12s %12s\n" "Scale" "Nodes" "Edges";
  List.iter
    (fun scale ->
      let g, _ = l4_graph scale in
      Printf.printf "%-6s %12d %12d\n" (L4.scale_name scale) (Graph.n_nodes g) (Graph.n_edges g))
    !scales

(* ------------------------------------------------------------------ *)
(* FIG5-8: L4All answer counts and execution times                     *)
(* ------------------------------------------------------------------ *)

(* One sweep computes everything FIG5-8 need; cache it. *)
let l4_results : (L4.scale * int * Core.Query.mode, measured) Hashtbl.t = Hashtbl.create 64

let l4_measure scale id mode =
  match Hashtbl.find_opt l4_results (scale, id, mode) with
  | Some m -> m
  | None ->
    let gk = l4_graph scale in
    let qtext = L4.query_text id mode in
    let m =
      match mode with
      | Core.Query.Exact -> measure_exact gk qtext
      | Core.Query.Approx | Core.Query.Relax -> measure_flex gk ~options:Options.default qtext
    in
    Hashtbl.add l4_results (scale, id, mode) m;
    m

let fig5 () =
  header "[FIG5] L4All answers per query / graph (paper Fig. 5)";
  Printf.printf "counts of answers; 'd:(n)' = n answers at distance d\n";
  List.iter
    (fun scale ->
      Printf.printf "--- %s ---\n%!" (L4.scale_name scale);
      Printf.printf "%-4s %10s   %8s %-28s %8s %-28s\n" "Q" "Exact" "APPROX" "(top 100)" "RELAX"
        "(top 100)";
      List.iter
        (fun id ->
          let e = l4_measure scale id Core.Query.Exact in
          let a = l4_measure scale id Core.Query.Approx in
          let r = l4_measure scale id Core.Query.Relax in
          Printf.printf "Q%-3d %10d   %8d %-28s %8d %-28s\n%!" id e.count a.count
            (pp_histogram a.histogram) r.count (pp_histogram r.histogram))
        L4.stress_queries)
    !scales;
  write_json ~section:"fig5"
    (List.concat_map
       (fun scale ->
         List.concat_map
           (fun id ->
             List.map
               (fun mode ->
                 json_row ~dataset:"l4all" ~scale:(L4.scale_name scale)
                   ~query:(Printf.sprintf "Q%d" id) ~mode (l4_measure scale id mode))
               [ Core.Query.Exact; Core.Query.Approx; Core.Query.Relax ])
           L4.stress_queries)
       !scales)

let time_table ~section title note mode =
  header title;
  Printf.printf "%s\n" note;
  Printf.printf "%-5s" "Q";
  List.iter (fun s -> Printf.printf " %10s" (L4.scale_name s)) !scales;
  Printf.printf "   (ms)\n";
  List.iter
    (fun id ->
      Printf.printf "Q%-4d" id;
      List.iter
        (fun scale ->
          let m = l4_measure scale id mode in
          match marker_of m.termination with
          | Some mark -> Printf.printf " %10s" mark
          | None -> Printf.printf " %10.2f" m.time_ms)
        !scales;
      Printf.printf "\n%!")
    L4.stress_queries;
  write_json ~section
    (List.concat_map
       (fun id ->
         List.map
           (fun scale ->
             json_row ~dataset:"l4all" ~scale:(L4.scale_name scale)
               ~query:(Printf.sprintf "Q%d" id) ~mode (l4_measure scale id mode))
           !scales)
       L4.stress_queries)

let fig6 () =
  time_table ~section:"fig6" "[FIG6] L4All exact execution times (paper Fig. 6)"
    "run to completion; average over post-warm-up runs" Core.Query.Exact

let fig7 () =
  time_table ~section:"fig7" "[FIG7] L4All APPROX execution times (paper Fig. 7)"
    "mean batch time over 10 batches of 10 answers" Core.Query.Approx

let fig8 () =
  time_table ~section:"fig8" "[FIG8] L4All RELAX execution times (paper Fig. 8)"
    "mean batch time over 10 batches of 10 answers" Core.Query.Relax

(* ------------------------------------------------------------------ *)
(* YAGO                                                                *)
(* ------------------------------------------------------------------ *)

let yago_stats () =
  header "[YAGO-STATS] YAGO-shaped graph characteristics (paper §4.2)";
  let g, k = yago_graph () in
  let interner = Ontology.interner k in
  Format.printf "graph: %a@." Graph.pp_stats (Graph.stats g);
  List.iter
    (fun root ->
      let s = Ontology.class_hierarchy_stats k root in
      Printf.printf
        "taxonomy %-18s depth=%d members=%d avg-fanout=%.2f (paper: depth 2, fan-out 933.43 at full scale)\n"
        (Graphstore.Interner.name interner root)
        s.Ontology.depth s.Ontology.members s.Ontology.avg_fanout)
    (Ontology.class_roots k);
  Printf.printf "%d edge labels incl. type (paper: 38 properties)\n" (List.length (Graph.labels g));
  List.iter
    (fun root ->
      let s = Ontology.property_hierarchy_stats k root in
      Printf.printf "property hierarchy %-26s sub-properties=%d (paper: 6 and 2)\n"
        (Graphstore.Interner.name interner root)
        (s.Ontology.members - 1))
    (Ontology.property_roots k)

let yago_results : (int * Core.Query.mode, measured) Hashtbl.t = Hashtbl.create 16

let yago_measure id mode =
  match Hashtbl.find_opt yago_results (id, mode) with
  | Some m -> m
  | None ->
    let gk = yago_graph () in
    let qtext = Yago.query_text id mode in
    let m =
      match mode with
      | Core.Query.Exact -> measure_exact gk qtext
      | Core.Query.Approx | Core.Query.Relax -> measure_flex gk ~options:(yago_options mode) qtext
    in
    Hashtbl.add yago_results (id, mode) m;
    m

let fig10 () =
  header "[FIG10] YAGO answer counts (paper Fig. 10)";
  Printf.printf
    "'?' = aborted on tuple budget (%d tuples), the paper's out-of-memory case ('T' deadline, 'F' fault)\n"
    !yago_budget;
  Printf.printf "%-4s %10s   %8s %-28s %8s %-28s\n" "Q" "Exact" "APPROX" "(top 100)" "RELAX"
    "(top 100)";
  List.iter
    (fun id ->
      let e = yago_measure id Core.Query.Exact in
      let a = yago_measure id Core.Query.Approx in
      let r = yago_measure id Core.Query.Relax in
      let cell (m : measured) =
        match marker_of m.termination with Some mark -> mark | None -> string_of_int m.count
      in
      Printf.printf "Q%-3d %10s   %8s %-28s %8s %-28s\n%!" id (cell e) (cell a)
        (pp_histogram a.histogram) (cell r) (pp_histogram r.histogram))
    Yago.stress_queries;
  write_json ~section:"fig10"
    (List.concat_map
       (fun id ->
         List.map
           (fun mode ->
             json_row ~dataset:"yago" ~scale:(string_of_float !yago_scale)
               ~query:(Printf.sprintf "Q%d" id) ~mode (yago_measure id mode))
           [ Core.Query.Exact; Core.Query.Approx; Core.Query.Relax ])
       Yago.stress_queries)

let fig11 () =
  header "[FIG11] YAGO execution times (paper Fig. 11)";
  Printf.printf "%-4s %12s %12s %12s  (ms; '?' = budget abort, 'T' deadline, 'F' fault)\n" "Q"
    "Exact" "APPROX" "RELAX";
  List.iter
    (fun id ->
      let cell (m : measured) =
        match marker_of m.termination with
        | Some mark -> Printf.sprintf "%12s" mark
        | None -> Printf.sprintf "%12.2f" m.time_ms
      in
      Printf.printf "Q%-3d %s %s %s\n%!" id
        (cell (yago_measure id Core.Query.Exact))
        (cell (yago_measure id Core.Query.Approx))
        (cell (yago_measure id Core.Query.Relax)))
    Yago.stress_queries;
  write_json ~section:"fig11"
    (List.concat_map
       (fun id ->
         List.map
           (fun mode ->
             json_row ~dataset:"yago" ~scale:(string_of_float !yago_scale)
               ~query:(Printf.sprintf "Q%d" id) ~mode (yago_measure id mode))
           [ Core.Query.Exact; Core.Query.Approx; Core.Query.Relax ])
       Yago.stress_queries)

(* ------------------------------------------------------------------ *)
(* OPT1 / OPT2: the §4.3 optimisations                                 *)
(* ------------------------------------------------------------------ *)

let median l =
  let sorted = List.sort compare l in
  List.nth sorted (List.length sorted / 2)

let top100_time gk ~options qtext =
  let once () =
    match Engine.run_string ~graph:(fst gk) ~ontology:(snd gk) ~options ~limit:100 qtext with
    | Ok o -> List.length o.Engine.answers
    | Error m -> failwith m
  in
  let n = once () in
  let times = List.init (max 3 !runs) (fun _ -> snd (ms once)) in
  (n, median times)

let opt1 () =
  header "[OPT1] Distance-aware retrieval (paper §4.3: L4All Q3,Q9 3-4x; YAGO Q3 2x, Q2 2560->0.6ms)";
  let l4_scale = List.nth !scales (min 2 (List.length !scales - 1)) in
  let l4 = l4_graph l4_scale in
  let cases =
    [
      ("L4All " ^ L4.scale_name l4_scale, l4, L4.query_text 3 Core.Query.Approx, "Q3");
      ("L4All " ^ L4.scale_name l4_scale, l4, L4.query_text 8 Core.Query.Approx, "Q8");
      ("L4All " ^ L4.scale_name l4_scale, l4, L4.query_text 9 Core.Query.Approx, "Q9");
      ("L4All " ^ L4.scale_name l4_scale, l4, L4.query_text 12 Core.Query.Approx, "Q12");
      ("YAGO", yago_graph (), Yago.query_text 2 Core.Query.Approx, "Q2");
      ("YAGO", yago_graph (), Yago.query_text 3 Core.Query.Approx, "Q3");
    ]
  in
  Printf.printf "%-12s %-4s %12s %15s %9s\n" "dataset" "Q" "plain (ms)" "dist-aware (ms)" "speedup";
  List.iter
    (fun (label, gk, qtext, qname) ->
      let n1, t1 = top100_time gk ~options:Options.default qtext in
      let n2, t2 =
        top100_time gk ~options:{ Options.default with Options.distance_aware = true } qtext
      in
      if n1 <> n2 then Printf.printf "(warning: %s %s answer counts differ: %d vs %d)\n" label qname n1 n2;
      Printf.printf "%-12s %-4s %12.2f %15.2f %8.1fx\n%!" label qname t1 t2 (t1 /. t2))
    cases

let opt2 () =
  header "[OPT2] Alternation by disjunction (paper §4.3: YAGO Q9 101.23 -> 12.65 ms)";
  let gk = yago_graph () in
  let qtext = Yago.query_text 9 Core.Query.Approx in
  let n1, t1 = top100_time gk ~options:Options.default qtext in
  let n2, t2 = top100_time gk ~options:{ Options.default with Options.decompose = true } qtext in
  Printf.printf
    "YAGO Q9 APPROX top-100: plain %.2f ms (%d answers) | decomposed %.2f ms (%d answers) | speedup %.1fx\n"
    t1 n1 t2 n2 (t1 /. t2)

(* ------------------------------------------------------------------ *)
(* ABL: ablations of the paper's §3.3 design choices                   *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "[ABL] Ablations of §3.3 design choices";
  let l4_scale = List.nth !scales (min 2 (List.length !scales - 1)) in
  let l4 = l4_graph l4_scale in
  let yago = yago_graph () in
  (* final/non-final priority: the paper credits it with faster answers and
     with some queries completing at all (we bound D_R's peak instead) *)
  Printf.printf "-- final-tuple priority (paper: 'improved the performance of most of our queries')\n";
  Printf.printf "%-34s %12s %14s %12s %14s\n" "query" "on (ms)" "peak queue" "off (ms)" "peak queue";
  (* the first 100 answers of [qtext]: the stream's stats and the time taken *)
  let take_100 gk options qtext =
    let query = Core.Query_parser.parse qtext in
    let st = Engine.open_query ~graph:(fst gk) ~ontology:(snd gk) ~options query in
    let rec take k = if k > 0 then match Engine.next st with Some _ -> take (k - 1) | None -> () in
    let (), t = ms (fun () -> take 100) in
    let stats = Engine.stream_stats st in
    Engine.close st;
    (stats, t)
  in
  List.iter
    (fun (label, gk, qtext) ->
      let on, on_t = take_100 gk Options.default qtext in
      let off, off_t = take_100 gk { Options.default with Options.final_priority = false } qtext in
      Printf.printf "%-34s %12.2f %14d %12.2f %14d\n%!" label on_t on.Core.Exec_stats.peak_queue
        off_t off.Core.Exec_stats.peak_queue)
    [
      ( "L4All " ^ L4.scale_name l4_scale ^ " Q9 APPROX",
        l4, L4.query_text 9 Core.Query.Approx );
      ("L4All " ^ L4.scale_name l4_scale ^ " Q10 APPROX", l4, L4.query_text 10 Core.Query.Approx);
      ("YAGO Q3 APPROX", yago, Yago.query_text 3 Core.Query.Approx);
      ("YAGO Q9 APPROX", yago, Yago.query_text 9 Core.Query.Approx);
    ];
  (* coroutine seed batching: the paper reports it halved some queries *)
  Printf.printf
    "-- batched seeding of (?X,R,?Y) conjuncts (paper: 'reduced the execution time of some queries by half')\n";
  Printf.printf "%-34s %14s %16s %14s %16s\n" "query" "batched (ms)" "seeds entered" "up-front (ms)"
    "seeds entered";
  List.iter
    (fun (label, gk, qtext) ->
      let on, on_t = take_100 gk Options.default qtext in
      let off, off_t = take_100 gk { Options.default with Options.batch_size = max_int } qtext in
      Printf.printf "%-34s %14.2f %16d %14.2f %16d\n%!" label on_t on.Core.Exec_stats.seeds off_t
        off.Core.Exec_stats.seeds)
    [
      ("L4All " ^ L4.scale_name l4_scale ^ " Q4 exact", l4, L4.query_text 4 Core.Query.Exact);
      ("L4All " ^ L4.scale_name l4_scale ^ " Q5 exact", l4, L4.query_text 5 Core.Query.Exact);
      ( "L4All " ^ L4.scale_name l4_scale ^ " Q7 exact",
        l4, L4.query_text 7 Core.Query.Exact );
      ("YAGO Q6 exact", yago, Yago.query_text 6 Core.Query.Exact);
    ]

(* RELAX vs. materialised RDFS inference: the space/time trade-off the
   query-time operator avoids.  We saturate a copy of the L4All graph with
   rdfs7 (sub-property) entailments and compare a RELAXed query against the
   equivalent exact query over the super-property. *)
let relax_vs_saturation () =
  header "[ABL-SAT] RELAX vs. RDFS materialisation";
  let scale = List.hd !scales in
  let g, k = l4_graph scale in
  let g', k' = L4.generate_scale scale in
  let (), sat_time = ms (fun () -> ignore (Rdfs.saturate ~subclass:false ~domain_range:false g' k')) in
  Graph.freeze g' (* saturation mutates the store, dropping the CSR index *);
  Printf.printf
    "L4All %s: saturation adds %d edges (%d -> %d, +%.0f%%) in %.1f ms — paid once, for every query\n"
    (L4.scale_name scale)
    (Graph.n_edges g' - Graph.n_edges g)
    (Graph.n_edges g) (Graph.n_edges g')
    (100. *. float_of_int (Graph.n_edges g' - Graph.n_edges g) /. float_of_int (Graph.n_edges g))
    sat_time;
  let q_relaxed = "(?X) <- RELAX (Alumni 4 Episode 1_1, prereq*.next+.prereq, ?X)" in
  let q_saturated = "(?X) <- (Alumni 4 Episode 1_1, isEpisodeLink*.isEpisodeLink+.isEpisodeLink, ?X)" in
  let n1, t1 = top100_time (g, k) ~options:Options.default q_relaxed in
  let n2, t2 = top100_time (g', k') ~options:Options.default q_saturated in
  Printf.printf
    "Q9 relaxed-on-original: %d answers in %.2f ms | fully-relaxed exact on saturated: %d answers in %.2f ms\n"
    n1 t1 n2 t2;
  Printf.printf
    "(RELAX additionally ranks answers by relaxation distance and applies the rule-(ii)\n\
    \ domain/range rewrites, which the saturated rewrite does not express — hence the\n\
    \ small count difference.)\n"

(* ------------------------------------------------------------------ *)
(* FLIGHT: flight recorder overhead                                    *)
(* ------------------------------------------------------------------ *)

(* Two measurements of lib/obs/flight.ml:

   1. the raw recorder in isolation — a tight loop of [record] calls with
      the recorder off (the single-load fast path every call site pays
      unconditionally) and on (sequence fetch, slot write, publication
      store);

   2. the answer path end to end — the exact Q4-Q7 queries at domains 2
      (the canonical order, which records spans only), in
      [flight_pairs] pairs of passes: a pair runs every query with the
      recorder off and on back to back, the side that goes first swapping
      every pair, and each side's times sum to its pass.  With [--json]
      each side's passes go to one JSONL file, one run result per line in
      perfbench's shape, which [validate --compare] gates at the
      recorder's 2% bound. *)
let flight_pairs = 400

let flight () =
  header "[FLIGHT] flight recorder overhead";
  let reps = 1_000_000 in
  let tight label f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "%-28s %8.1f ns/event %12.2f M events/s\n%!" label (1e9 *. dt /. float_of_int reps)
      (float_of_int reps /. dt /. 1e6)
  in
  Obs.Flight.disable ();
  Obs.Flight.clear ();
  tight "record (recorder off)" (fun () ->
      Obs.Flight.record ~flow:0 ~shard:0 (Obs.Flight.Deliver { dist = 1 }));
  Obs.Flight.enable ();
  tight "record (recorder on)" (fun () ->
      Obs.Flight.record ~flow:0 ~shard:0 (Obs.Flight.Deliver { dist = 1 }));
  let recorded, dropped = Obs.Flight.stats () in
  Printf.printf "ring stats after the hot loop: recorded=%d dropped=%d (wraparound is the design)\n"
    recorded dropped;
  Obs.Flight.disable ();
  Obs.Flight.clear ();
  let scale = List.hd !scales in
  let g, k = l4_graph scale in
  let options = { Options.default with Options.domains = 2 } in
  let queries = List.map (fun id -> L4.query_text id Core.Query.Exact) [ 4; 5; 6; 7 ] in
  let run recorder_on q =
    if recorder_on then Obs.Flight.enable ();
    let answers, t =
      ms (fun () ->
          match Engine.run_string ~graph:g ~ontology:k ~options ~limit:max_int q with
          | Ok o -> List.length o.Engine.answers
          | Error msg -> failwith msg)
    in
    Obs.Flight.disable ();
    Obs.Flight.clear ();
    (answers, t)
  in
  let pair i =
    List.fold_left
      (fun ((n_off, t_off), (n_on, t_on)) q ->
        let (a, x), (b, y) =
          if i mod 2 = 0 then
            let off = run false q in
            (off, run true q)
          else
            let on = run true q in
            (run false q, on)
        in
        ((n_off + a, t_off +. x), (n_on + b, t_on +. y)))
      ((0, 0.), (0, 0.))
      queries
  in
  let (expected, _), _ = pair 0 (* warm-up *) in
  let pairs = List.init flight_pairs pair in
  let off = List.map fst pairs and on = List.map snd pairs in
  let med side = median (List.map snd side) in
  Printf.printf
    "exact Q4-Q7 at domains=2, scale %s, %d alternating pairs: median pass off %.2f ms, on %.2f ms \
     (%+.2f%%)\n%!"
    (L4.scale_name scale) flight_pairs (med off) (med on)
    (100. *. (med on -. med off) /. med off);
  let result (answers, t) =
    Obs.Json.(
      Obj
        [
          ("correct", Bool (answers = expected));
          ("attempted", Int (List.length queries));
          ("failed", Int 0);
          ("metrics", Obj [ ("answer_path_ms", Obj [ ("value", Float t); ("unit", String "ms") ]) ]);
        ])
  in
  if !json_mode then
    List.iter
      (fun (path, side) ->
        Out_channel.with_open_text path (fun oc ->
            List.iter (fun r -> Obs.Jsonl.write_line oc (result r)) side);
        Printf.printf "[json] wrote %s (%d run(s))\n%!" path (List.length side))
      [ ("BENCH_flight_off.jsonl", off); ("BENCH_flight_on.jsonl", on) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

(* Neighbour-scan throughput: sweep every (node, label, direction) lookup of
   the graph through [iter_neighbors] on the CSR index.  This is the [Succ]
   hot path in isolation. *)
let scan_throughput () =
  header "[MICRO] neighbour-scan throughput on the CSR index";
  let g, _ = l4_graph (List.hd !scales) in
  let labels = Graph.labels g in
  let sweep () =
    let count = ref 0 in
    Graph.iter_nodes g (fun n ->
        List.iter
          (fun l ->
            Graph.iter_neighbors g n l Graph.Out (fun _ -> incr count);
            Graph.iter_neighbors g n l Graph.In (fun _ -> incr count))
          labels);
    !count
  in
  let time_sweeps reps =
    let edges = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      edges := sweep ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (!edges, float_of_int (reps * !edges) /. dt /. 1e6)
  in
  let reps = max 3 !runs in
  let _ = sweep () (* warm-up *) in
  let edges, csr_rate = time_sweeps reps in
  Printf.printf "%d edge slots swept x%d; CSR %.2f M edges/s\n" edges reps csr_rate;
  Printf.printf "CSR index size: %d bytes (%.1f bytes/edge)\n" (Graph.csr_bytes g)
    (float_of_int (Graph.csr_bytes g) /. float_of_int (Graph.n_edges g));
  (* one instrumented query so the Exec_stats counters are visible (the
     harness clock is installed once at startup, so scan_ns is measured) *)
  match
    Engine.run_string ~graph:g ~ontology:(snd (l4_graph (List.hd !scales))) ~limit:100
      (L4.query_text 10 Core.Query.Approx)
  with
  | Ok o -> Format.printf "L4All Q10 APPROX top-100 stats: %a@." Core.Exec_stats.pp o.Engine.stats
  | Error m -> failwith m

(* N-Triples load rate: the first L4All scale saved once, then [Nt.load]
   timed on the file — median of 5 loads. *)
let load_throughput () =
  header "[MICRO] N-Triples load rate";
  let graph, ontology = l4_graph (List.hd !scales) in
  let path = Filename.temp_file "omega-micro" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ntriples.Nt.save path ~graph ~ontology;
      let mb = float_of_int (Unix.stat path).Unix.st_size /. 1e6 in
      let triples = ref 0 in
      let load () =
        let t0 = Unix.gettimeofday () in
        let _, report = Ntriples.Nt.load_report path in
        triples := report.Ntriples.Nt.triples;
        Unix.gettimeofday () -. t0
      in
      let dt = median (List.init 5 (fun _ -> load ())) in
      Printf.printf "%.1f MB, %d triples; load %.1f MB/s, %.2f M triples/s (median of 5)\n" mb
        !triples (mb /. dt)
        (float_of_int !triples /. dt /. 1e6))

let micro () =
  scan_throughput ();
  load_throughput ();
  header "[MICRO] Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let l4_small = l4_graph (List.hd !scales) in
  let yago = yago_graph () in
  let top k options gk qtext () =
    match Engine.run_string ~graph:(fst gk) ~ontology:(snd gk) ~options ~limit:k qtext with
    | Ok o -> ignore o
    | Error m -> failwith m
  in
  let da = { Options.default with Options.distance_aware = true } in
  let dc = { Options.default with Options.decompose = true } in
  let budgeted = { Options.default with Options.max_tuples = Some !yago_budget } in
  let tests =
    Test.make_grouped ~name:"omega"
      [
        Test.make ~name:"fig2-hierarchy-stats"
          (Staged.stage (fun () ->
               List.iter
                 (fun r -> ignore (Ontology.class_hierarchy_stats (snd l4_small) r))
                 (Ontology.class_roots (snd l4_small))));
        Test.make ~name:"fig3-graph-stats" (Staged.stage (fun () -> ignore (Graph.stats (fst l4_small))));
        Test.make ~name:"fig5-counts-q10-exact"
          (Staged.stage (top max_int Options.default l4_small (L4.query_text 10 Core.Query.Exact)));
        Test.make ~name:"fig6-exact-q3"
          (Staged.stage (top max_int Options.default l4_small (L4.query_text 3 Core.Query.Exact)));
        Test.make ~name:"fig7-approx-q10"
          (Staged.stage (top 100 Options.default l4_small (L4.query_text 10 Core.Query.Approx)));
        Test.make ~name:"fig8-relax-q10"
          (Staged.stage (top 100 Options.default l4_small (L4.query_text 10 Core.Query.Relax)));
        Test.make ~name:"fig10-yago-q2-approx"
          (Staged.stage (top 100 budgeted yago (Yago.query_text 2 Core.Query.Approx)));
        Test.make ~name:"fig11-yago-q9-approx"
          (Staged.stage (top 100 budgeted yago (Yago.query_text 9 Core.Query.Approx)));
        Test.make ~name:"opt1-distance-aware-q3"
          (Staged.stage (top 100 da l4_small (L4.query_text 3 Core.Query.Approx)));
        Test.make ~name:"opt2-decomposed-yago-q9"
          (Staged.stage (top 100 dc yago (Yago.query_text 9 Core.Query.Approx)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  Printf.printf "%-40s %15s\n" "benchmark" "time/run";
  List.iter
    (fun (name, est) ->
      let value =
        match Analyze.OLS.estimates est with Some [ v ] -> v | Some _ | None -> nan
      in
      let pretty =
        if value > 1e9 then Printf.sprintf "%8.2f s " (value /. 1e9)
        else if value > 1e6 then Printf.sprintf "%8.2f ms" (value /. 1e6)
        else if value > 1e3 then Printf.sprintf "%8.2f us" (value /. 1e3)
        else Printf.sprintf "%8.0f ns" value
      in
      Printf.printf "%-40s %15s\n" name pretty)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  (* The one shared clock init: scan-time attribution, governor deadlines
     and trace timestamps all read the same installed clock.  (Sections
     used to install Exec_stats.now_ns ad hoc, leaving scan_ns silently 0
     elsewhere.) *)
  Obs.Clock.install (fun () -> int_of_float (1e9 *. Unix.gettimeofday ()));
  Printf.printf "omega benchmark harness: sections=%s scales=%s runs=%d\n%!"
    (String.concat "," !sections)
    (String.concat "," (List.map L4.scale_name !scales))
    !runs;
  if enabled "fig2" then fig2 ();
  if enabled "fig3" then fig3 ();
  if enabled "fig5" then fig5 ();
  if enabled "fig6" then fig6 ();
  if enabled "fig7" then fig7 ();
  if enabled "fig8" then fig8 ();
  if enabled "yago-stats" then yago_stats ();
  if enabled "fig10" then fig10 ();
  if enabled "fig11" then fig11 ();
  if enabled "opt1" then opt1 ();
  if enabled "opt2" then opt2 ();
  if enabled "abl" then ablations ();
  if enabled "abl-sat" then relax_vs_saturation ();
  if enabled "flight" then flight ();
  if enabled "micro" then micro ();
  Printf.printf "\ndone.\n"
