(* The bench program: boots a workload's graph, replays its seeded
   operation sequence against the engine (in-process) or against an
   [omega_serve] child (over its Unix socket), checks every answer stream
   against the stored goldens, and prints the run's metrics — end-to-end
   ones from an untraced run, per-layer ones from a traced run.

   Usage (from the repository root, after [dune build]):
     omega_bench.exe --workload flex-topk --seed 1 --seconds 15 --trace 0 \
       --data-dir perfbench/_cache --goldens perfbench/goldens \
       --serve _build/default/bin/omega_serve.exe
     omega_bench.exe --workload join-par --regen-goldens ...

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}. *)

module Graph = Graphstore.Graph
module W = Perfbench.Workloads
module S = Perfbench.Stats
module Sp = Perfbench.Spans
module D = Perfbench.Answer_digest
module Json = Obs.Json

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6

(* ---- workloads ---------------------------------------------------- *)

type dataset = L4all of Datagen.L4all.scale | Yago of float

type workload = {
  name : string;
  dataset : dataset;
  domains : int;
  limit : int;  (** answers requested per query *)
  parallel : bool;
      (** goldens are the parallel stream, checked at regeneration against the
          1-domain answers *)
  server : bool;  (** through an [omega_serve] child rather than in-process *)
  full_settle : bool;
      (** settle the GC before each operation with whole major cycles
          rather than a slice (see [settled]) *)
  pass_seconds : float;
      (** nominal length of one pass on the reference host (2-core x86-64
          VM): a run of [--seconds S] replays round (S / pass_seconds)
          passes *)
  strata : Graph.t -> Ontology.t -> W.stratum list;
}

let workloads =
  [
    {
      name = "flex-topk";
      dataset = L4all Datagen.L4all.L3;
      domains = 1;
      limit = 100;
      parallel = false;
      server = false;
      full_settle = true;
      pass_seconds = 15.;
      strata = W.flex_topk;
    };
    {
      name = "join-par";
      dataset = L4all Datagen.L4all.L2;
      domains = 2;
      limit = 100;
      parallel = true;
      server = false;
      full_settle = false;
      pass_seconds = 10. /. 3.;
      strata = W.join_par;
    };
    {
      name = "serve-mix";
      dataset = Yago 0.1;
      domains = 1;
      limit = 10;
      parallel = false;
      server = true;
      full_settle = false;
      pass_seconds = 3.;
      strata = W.serve_mix;
    };
  ]

(* Before each in-process operation, untimed, the GC is settled, so that
   an operation does not pay for the garbage the ones before it left,
   which depends on the order of the pass.  The time spent settling is
   kept apart and taken out of the pass wall time: the forced collections
   are the benchmark's, not the program's.

   [join-par] runs a minor collection and as much major work as the
   runtime owes ([Gc.major_slice 0]).  Without it, first answers right
   after an APPROX Q8/Q9 query took ten times as long as the others (0.9
   against 0.1 ms).  A slice is not enough on [flex-topk], whose median
   falls among light queries: the number of minor collections inside one
   query still varied from run to run for 104 of its 218 queries, and a
   light query that met one took 2-4 ms instead of 0.1-0.6 ms.  There the
   rest of the major cycle runs ([Gc.major]), after which the count
   repeats exactly for all 218.  An operation that allocated more than
   [heavy_words] is followed by [Gc.full_major] instead, which also runs a
   whole new cycle, because its garbage can outlive one: after [Gc.major]
   alone the run's peak RSS landed on 490, 820 or 1180 MiB depending on
   the order.  On [join-par] whole cycles made the 2-domain queries
   10-15% slower and the peak RSS vary with the order (195-285 against
   300 MiB), so it keeps the slice. *)
let heavy_words = 2_000_000.

type settler = { wl : workload; mutable last_words : float; mutable settled_ns : int }

let settler wl = { wl; last_words = 0.; settled_ns = 0 }

(* Settle, then run [f], noting how much it allocates. *)
let settled s f =
  let t0 = now () in
  if not s.wl.full_settle then ignore (Gc.major_slice 0)
  else if s.last_words > heavy_words then Gc.full_major ()
  else Gc.major ();
  s.settled_ns <- s.settled_ns + (now () - t0);
  let w0 = Gc.minor_words () in
  Fun.protect ~finally:(fun () -> s.last_words <- Gc.minor_words () -. w0) f

let setup_boots = 3
let yago_seed = Datagen.Yago_sim.default_params.seed
let l4all_seed = 1404

let data_file dir = function
  | L4all s -> Filename.concat dir (Printf.sprintf "l4all-%s-%d.nt" (Datagen.L4all.scale_name s) l4all_seed)
  | Yago scale -> Filename.concat dir (Printf.sprintf "yago-%g-%d.nt" scale yago_seed)

(* Untimed preparation: generate and write the dataset once per checkout. *)
let prepare dir dataset =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = data_file dir dataset in
  if not (Sys.file_exists path) then begin
    let graph, ontology =
      match dataset with
      | L4all s -> Datagen.L4all.generate_scale ~seed:l4all_seed s
      | Yago scale -> Datagen.Yago_sim.generate ~params:{ Datagen.Yago_sim.scale; seed = yago_seed } ()
    in
    let tmp = path ^ ".tmp" in
    Ntriples.Nt.save tmp ~graph ~ontology;
    Sys.rename tmp path
  end;
  path

type boot = { load_ns : int; freeze_ns : int }

let boot path =
  let t0 = now () in
  let graph, ontology = Ntriples.Nt.load path in
  let t1 = now () in
  Graph.freeze graph;
  let t2 = now () in
  (graph, ontology, { load_ns = t1 - t0; freeze_ns = t2 - t1 })

(* Boot [setup_boots] times (each from a compacted heap), keep the last. *)
let boot_repeatedly path =
  let rec go k boots =
    Gc.compact ();
    let graph, ontology, b = boot path in
    if k <= 1 then (graph, ontology, List.rev (b :: boots)) else go (k - 1) (b :: boots)
  in
  go setup_boots []

let median_int xs = S.median (Array.of_list (List.map float_of_int xs))

(* ---- goldens ------------------------------------------------------ *)

(* A workload's goldens file holds its whole catalogue, one query per line,
   grouped by stratum in catalogue order:
     stratum <TAB> draw <TAB> digest <TAB> answer count <TAB> query text
   so a run rebuilds its strata from the file without the graph. *)

let golden_file dir wl = Filename.concat dir (wl.name ^ ".tsv")

let draw_to_string = function
  | W.Uniform n -> Printf.sprintf "uniform %d" n
  | W.Zipf n -> Printf.sprintf "zipf %d" n

let draw_of_string s =
  match String.split_on_char ' ' s with
  | [ "uniform"; n ] -> W.Uniform (int_of_string n)
  | [ "zipf"; n ] -> W.Zipf (int_of_string n)
  | _ -> failwith ("bad draw: " ^ s)

let load_goldens path =
  let digests = Hashtbl.create 4096 in
  let strata = ref [] in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.split_on_char '\t' line with
          | [ name; draw; digest; _count; text ] ->
            Hashtbl.replace digests text digest;
            (match !strata with
            | (n, d, texts) :: rest when n = name -> strata := (n, d, text :: texts) :: rest
            | l -> strata := (name, draw, [ text ]) :: l)
          | _ -> failwith ("malformed golden line: " ^ line));
          go ()
      in
      go ());
  let strata =
    List.rev_map
      (fun (name, draw, texts) ->
        { W.name; constants = Array.of_list (List.rev texts); instantiate = Fun.id; draw = draw_of_string draw })
      !strata
  in
  (strata, digests)

(* ---- one in-process query ----------------------------------------- *)

type result = {
  mutable latency_ns : int;
  mutable first_ns : int;  (** to the first answer, or to the end of an empty stream *)
  answers : D.answer list;  (** in emission order *)
  completed : bool;  (** the stream ended normally, not by a governor trip *)
  stream : Core.Engine.stream;
}

(* Parse, open, pull up to [limit] answers, close.  With [trace], each call
   into the engine is a child span of the given root.  The clock is read
   first and last, around everything that allocates, so a root span around
   this call lasts [latency_ns] plus a few clock reads and calls. *)
let engine_query ?trace ~graph ~ontology ~options ~limit text =
  let t0 = now () in
  let step name f =
    match trace with None -> f () | Some (tr, op, parent) -> Sp.record tr ~op ~parent name (fun _ -> f ())
  in
  let q = step "parse" (fun () -> Core.Query_parser.parse text) in
  let stream = step "open" (fun () -> Core.Engine.open_query ~graph ~ontology ~options q) in
  let first = ref 0 and answers = ref [] and n = ref 0 in
  let rec pull () =
    if !n < limit then
      match step (if !n = 0 then "next.first" else "next") (fun () -> Core.Engine.next stream) with
      | Some a ->
        if !n = 0 then first := now ();
        answers := D.of_engine a :: !answers;
        incr n;
        pull ()
      | None -> ()
  in
  pull ();
  step "close" (fun () -> Core.Engine.close stream);
  let completed =
    match Core.Engine.status stream with
    | Core.Engine.Completed -> true
    | Core.Engine.Exhausted _ | Core.Engine.Rejected _ -> false
  in
  let r = { latency_ns = 0; first_ns = 0; answers = List.rev !answers; completed; stream } in
  let t1 = now () in
  r.latency_ns <- t1 - t0;
  r.first_ns <- (if !n = 0 then t1 - t0 else !first - t0);
  r

(* ---- the query server as a child process -------------------------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let conn_of fd = { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }

let rec write_all fd s off =
  if off < String.length s then write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c line = write_all c.fd (line ^ "\n") 0

(* A complete line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "omega_serve closed the connection"
  | k -> Buffer.add_subbytes c.pending c.chunk 0 k

let rec read_line c =
  match take_line c with
  | Some l -> l
  | None ->
    fill c;
    read_line c

type server = { pid : int; socket : string }

let rec connect_when_ready ~pid ~socket ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "omega_serve exited during start-up");
    if now () > deadline then failwith "omega_serve did not start within 120 s";
    Unix.sleepf 0.002;
    connect_when_ready ~pid ~socket ~deadline

(* Spawn [omega_serve] (it inherits the environment [run.py] pinned);
   returns the server, a connection, and the time from spawn to the first
   answered ping. *)
let start_server ~exe ~data ~dir =
  let socket = Filename.concat dir "serve.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let log = Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process exe [| exe; "run"; "--data"; data; "--socket"; socket; "--domains"; "1" |] null null log
  in
  Unix.close log;
  Unix.close null;
  let c = conn_of (connect_when_ready ~pid ~socket ~deadline:(t0 + 120_000_000_000)) in
  send c {|{"id":0,"op":"ping"}|};
  let pong = read_line c in
  let ready_ns = now () - t0 in
  if not (String.length pong > 0 && Json.parse pong |> Result.is_ok) then failwith ("bad ping reply: " ^ pong);
  ({ pid; socket }, c, ready_ns)

let proc_file pid name = Printf.sprintf "/proc/%s/%s" (if pid = 0 then "self" else string_of_int pid) name

(* Peak resident set (VmHWM) of process [pid] (0: this one), in KiB. *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (proc_file pid "status") In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d" Option.some
           | _ -> None)
    |> Option.value ~default:0

(* Reset the peak mark to the current resident set, so the next reading is
   the peak of what runs in between. *)
let reset_peak pid =
  try Out_channel.with_open_text (proc_file pid "clear_refs") (fun oc -> output_string oc "5") with Sys_error _ -> ()

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  if Sys.file_exists s.socket then Sys.remove s.socket

let request_line i (op : W.op) ~limit =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int i);
         ("tenant", Json.String (Printf.sprintf "tenant-%d" (i mod 4)));
         ("query", Json.String op.text);
         ("limit", Json.Int limit);
       ])

let request_lines ops ~limit = Array.mapi (fun i op -> request_line i op ~limit) ops

(* A response's code and answers (bindings in head order, distance). *)
let decode_response line =
  match Json.parse line with
  | Error _ -> None
  | Ok j ->
    let code = Server.Protocol.response_code j in
    let answers =
      Option.bind (Json.member "answers" j) Json.to_list
      |> Option.value ~default:[]
      |> List.map (fun a ->
             let bindings =
               match Json.member "bindings" a with
               | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, Option.value ~default:"" (Json.to_str v))) kvs
               | _ -> []
             in
             (bindings, Option.value ~default:(-1) (Option.bind (Json.member "distance" a) Json.to_int)))
    in
    Some (code, Option.bind (Json.member "status" j) Json.to_str, answers)

(* Closed loop over one connection: each request is sent as soon as the
   previous reply is in.  Returns per-request latency and the reply, or why
   there is none: when the connection fails, the request in flight and
   every later one are lost. *)
let closed_loop c lines =
  let n = Array.length lines in
  let latency = Array.make n 0 and replies = Array.make n (Error "not sent") in
  let rec go i =
    if i < n then begin
      let t0 = now () in
      match
        send c lines.(i);
        read_line c
      with
      | reply ->
        latency.(i) <- now () - t0;
        replies.(i) <- Ok reply;
        go (i + 1)
      | exception e -> Array.fill replies i (n - i) (Error (Printexc.to_string e))
    end
  in
  go 0;
  (latency, replies)

(* ---- checking ----------------------------------------------------- *)

type check = { mutable failed : int; mutable notes : string list }

let fail check msg =
  check.failed <- check.failed + 1;
  if List.length check.notes < 5 then check.notes <- msg :: check.notes

let check_answers check goldens text answers =
  match Hashtbl.find_opt goldens text with
  | None -> fail check ("no golden for " ^ text)
  | Some g -> if D.of_answers answers <> g then fail check ("digest mismatch: " ^ text)

let check_reply check goldens text = function
  | Error e -> fail check ("no response for " ^ text ^ ": " ^ e)
  | Ok reply -> (
    match decode_response reply with
    | Some (Some 0, Some "ok", answers) -> check_answers check goldens text answers
    | _ -> fail check ("not an ok response for " ^ text ^ ": " ^ reply)
    | exception e -> fail check ("unreadable response for " ^ text ^ ": " ^ Printexc.to_string e))

(* ---- output ------------------------------------------------------- *)

let metric name unit value = (name, unit, value)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "%s\n%!"
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, value) ->
                     (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
                   metrics) );
          ]))

let print_table metrics =
  List.iter (fun (name, unit, value) -> Printf.printf "  %-34s %14.6g %s\n" name value unit) metrics

(* ---- end-to-end runs ---------------------------------------------- *)

(* [latency] and [first] hold the operations that completed, in ns; when
   none did, there is nothing to measure and the run reports only its
   failures. *)
let e2e_metrics ~setup_ns ~wall_ns ~latency ~first ~rss_kb =
  if Array.length latency = 0 then []
  else
    let lat = Array.map ms latency in
    let tail = S.tail lat in
    Printf.printf "# %d operations; latency_tail_ms is p%g with %d samples beyond it\n" (Array.length lat) tail.pct
      tail.beyond;
    [
      metric "setup_s" "s" (setup_ns /. 1e9);
      metric "throughput_qps" "queries/s" (float_of_int (Array.length lat) /. secs wall_ns);
      metric "latency_p50_ms" "ms" (S.harrell_davis lat 0.5);
      metric "latency_tail_ms" "ms" tail.value;
      metric "first_answer_p50_ms" "ms" (S.harrell_davis (Array.map ms first) 0.5);
      metric "rss_peak_mb" "MiB" (rss_kb /. 1024.);
    ]

(* Pass-to-pass spread within one run shows how steady the host was. *)
let print_passes walls peaks_kb =
  let show f l = String.concat " " (List.map f l) in
  Printf.printf "# pass wall times (s): %s; peak RSS (MiB): %s\n"
    (show (fun w -> Printf.sprintf "%.3f" (secs w)) walls)
    (show (fun kb -> Printf.sprintf "%.0f" (float_of_int kb /. 1024.)) peaks_kb)

(* [n] whole passes; [f] runs one.  Every pass holds the same mix and the
   count is fixed by the run length alone, so every percentile falls at
   the same rank of the same mix on every run. *)
let run_passes n ~next_pass f = List.init n (fun _ -> let ops = next_pass () in (ops, f ops))

(* The first pass, drawn early for the warm-up, is still the first timed. *)
let with_first next_pass =
  let first = next_pass () in
  let pending = ref (Some first) in
  ( first,
    fun () ->
      match !pending with
      | Some p ->
        pending := None;
        p
      | None -> next_pass () )

let in_process_e2e wl ~path ~goldens ~passes ~next_pass check =
  let graph, ontology, boots = boot_repeatedly path in
  let setup_ns = median_int (List.map (fun b -> b.load_ns + b.freeze_ns) boots) in
  let options = { Core.Options.default with Core.Options.domains = wl.domains } in
  let first, next_pass = with_first next_pass in
  (* a warm-up query that raises raises again, and counts, when timed *)
  List.iter
    (fun (op : W.op) -> try ignore (engine_query ~graph ~ontology ~options ~limit:wl.limit op.text) with _ -> ())
    (W.first_per_stratum first);
  Gc.compact ();
  (* keep only what the checks need: a retained stream keeps its whole
     evaluation state alive *)
  let gc = settler wl in
  let run (op : W.op) =
    match settled gc (fun () -> engine_query ~graph ~ontology ~options ~limit:wl.limit op.text) with
    | r -> Ok (r.latency_ns, r.first_ns, r.completed, r.answers)
    | exception e -> Error (Printexc.to_string e)
  in
  let passes =
    run_passes passes ~next_pass (fun ops ->
        (* every pass starts from a compacted heap (which on OCaml 5.1 does
           not give memory back, so a pass's peak is at least the last one's) *)
        Gc.compact ();
        reset_peak 0;
        gc.settled_ns <- 0;
        let t0 = now () in
        let results = Array.map run ops in
        let wall = now () - t0 - gc.settled_ns in
        (results, wall, vm_hwm_kb 0))
  in
  let ops = Array.concat (List.map fst passes) in
  let results = Array.concat (List.map (fun (_, (r, _, _)) -> r) passes) in
  let wall_ns = List.fold_left (fun acc (_, (_, w, _)) -> acc + w) 0 passes in
  print_passes (List.map (fun (_, (_, w, _)) -> w) passes) (List.map (fun (_, (_, _, kb)) -> kb) passes);
  Array.iteri
    (fun i r ->
      let text = ops.(i).W.text in
      match r with
      | Error e -> fail check ("exception on " ^ text ^ ": " ^ e)
      | Ok (_, _, completed, answers) ->
        if not completed then fail check ("stream cut short: " ^ text) else check_answers check goldens text answers)
    results;
  let ok = Array.to_list results |> List.filter_map Result.to_option in
  let rss_kb = float_of_int (List.fold_left (fun acc (_, (_, _, kb)) -> max acc kb) 0 passes) in
  ( e2e_metrics ~setup_ns ~wall_ns
      ~latency:(Array.of_list (List.map (fun (l, _, _, _) -> l) ok))
      ~first:(Array.of_list (List.map (fun (_, f, _, _) -> f) ok))
      ~rss_kb,
    Array.length ops )

let server_e2e wl ~exe ~path ~dir ~goldens ~passes ~next_pass check =
  let rec boots k acc =
    let server, c, ready_ns = start_server ~exe ~data:path ~dir in
    if k <= 1 then (server, c, List.rev (ready_ns :: acc))
    else begin
      Unix.close c.fd;
      stop_server server;
      boots (k - 1) (ready_ns :: acc)
    end
  in
  let server, c, readies = boots setup_boots [] in
  Fun.protect
    ~finally:(fun () -> stop_server server)
    (fun () ->
      let first, next_pass = with_first next_pass in
      (* warm-up: every distinct request text of the first pass once; a
         connection lost here loses every timed request too *)
      let seen = Hashtbl.create 1024 in
      (try
         Array.iter
           (fun (op : W.op) ->
             if not (Hashtbl.mem seen op.text) then begin
               Hashtbl.add seen op.text ();
               send c (request_line 0 op ~limit:wl.limit);
               ignore (read_line c)
             end)
           first
       with _ -> ());
      let passes =
        run_passes passes ~next_pass (fun ops ->
            reset_peak server.pid;
            let t0 = now () in
            let latency, replies = closed_loop c (request_lines ops ~limit:wl.limit) in
            let wall = now () - t0 in
            (latency, replies, wall, vm_hwm_kb server.pid))
      in
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      let ops = Array.concat (List.map fst passes) in
      let latency = Array.concat (List.map (fun (_, (l, _, _, _)) -> l) passes) in
      let replies = Array.concat (List.map (fun (_, (_, r, _, _)) -> r) passes) in
      let wall_ns = List.fold_left (fun acc (_, (_, _, w, _)) -> acc + w) 0 passes in
      let rss_kb = float_of_int (List.fold_left (fun acc (_, (_, _, _, kb)) -> max acc kb) 0 passes) in
      print_passes (List.map (fun (_, (_, _, w, _)) -> w) passes) (List.map (fun (_, (_, _, _, kb)) -> kb) passes);
      Array.iteri (fun i reply -> check_reply check goldens ops.(i).W.text reply) replies;
      let answered = Array.of_list (List.filteri (fun i _ -> Result.is_ok replies.(i)) (Array.to_list latency)) in
      ( e2e_metrics ~setup_ns:(median_int readies) ~wall_ns ~latency:answered ~first:answered ~rss_kb,
        Array.length ops ))

(* ---- traced runs: per-layer metrics ------------------------------- *)

(* What a traced operation's engine stream counted, read after its root
   span has closed. *)
type counters = {
  answers : int;
  stats : Core.Exec_stats.t;
  merge_wait_ns : int;
  join_combos : int;
  states : int;
  transitions : int;
  minor_words : float;
  major_collections : int;
}

let h_sum registry name =
  if List.mem name (Obs.Metrics.names registry) then Obs.Metrics.h_sum (Obs.Metrics.histogram registry name)
  else 0

(* Compile every conjunct's automaton on its own, as a span of its own
   (not a child of the operation: the engine compiles again inside open). *)
let compile_probe tr ~op ~graph ~ontology ~options text =
  let q = Core.Query_parser.parse text in
  Sp.record tr ~op "compile" (fun _ ->
      List.fold_left
        (fun (states, transitions) (c : Core.Query.conjunct) ->
          let mode = Core.Options.compile_mode options c.Core.Query.cmode in
          let nfa = Automaton.Compile.conjunct_automaton ~graph ~ontology ~mode c.Core.Query.regex in
          (states + Automaton.Nfa.n_states nfa, transitions + Automaton.Nfa.n_transitions nfa))
        (0, 0) q.Core.Query.conjuncts)

let gc_mark () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

(* One traced engine query under a root span named [root], then its
   counters. *)
let traced_query tr ~op ~root ~graph ~ontology ~options ~limit text =
  let mw0, mc0 = gc_mark () in
  let r = Sp.record tr ~op root (fun id -> engine_query ~trace:(tr, op, id) ~graph ~ontology ~options ~limit text) in
  let mw1, mc1 = gc_mark () in
  let states, transitions = compile_probe tr ~op ~graph ~ontology ~options text in
  let registry = Core.Engine.metrics r.stream in
  ( r,
    {
      answers = List.length r.answers;
      stats = Core.Exec_stats.copy (Core.Engine.stream_stats r.stream);
      merge_wait_ns = h_sum registry "par_merge_wait_ns";
      join_combos = h_sum registry "join_combos";
      states;
      transitions;
      minor_words = mw1 -. mw0;
      major_collections = mc1 - mc0;
    } )

type serve_layers = {
  protocol_parse_us : float;
  protocol_render_us : float;
  handle_ms : float;
  transport_ms : float;
  shed_ratio : float;
}

let ratio a b = if b = 0. then 0. else a /. b

let layer_metrics ~boots ~server_ready_s ~spans ~(counters : counters array) ~latency_total_ns ~overhead_pct
    ~serve =
  let p50 name scale = match Sp.durations name spans with [||] -> 0. | d -> S.median d /. scale in
  let total name = S.sum (Sp.durations name spans) in
  let n = float_of_int (Array.length counters) in
  let sum f = Array.fold_left (fun acc c -> acc +. float_of_int (f c)) 0. counters in
  let median f = S.median (Array.map (fun c -> float_of_int (f c)) counters) in
  let st f c = f c.stats in
  let answers = sum (fun c -> c.answers) in
  let answered = sum (fun c -> if c.answers > 0 then 1 else 0) in
  let next_ns = total "next.first" +. total "next" in
  let parallel = Array.to_list counters |> List.filter (fun c -> c.stats.Core.Exec_stats.par_shards > 0) in
  let imbalance =
    let num =
      List.fold_left
        (fun acc c -> acc +. float_of_int (c.stats.par_busy_max_ns * c.stats.par_shards))
        0. parallel
    and den = List.fold_left (fun acc c -> acc +. float_of_int c.stats.par_busy_total_ns) 0. parallel in
    ratio num den
  in
  let boot_median f = median_int (List.map f boots) /. 1e9 in
  let serve_metric f = match serve with Some s -> f s | None -> 0. in
  [
    metric "setup.nt_load_s" "s" (boot_median (fun b -> b.load_ns));
    metric "setup.freeze_s" "s" (boot_median (fun b -> b.freeze_ns));
    metric "setup.server_ready_s" "s" server_ready_s;
    metric "parse.us_p50" "us" (p50 "parse" 1e3);
    metric "compile.us_p50" "us" (p50 "compile" 1e3);
    metric "compile.share" "ratio" (ratio (total "compile") latency_total_ns);
    metric "automaton.states_p50" "count" (median (fun c -> c.states));
    metric "automaton.transitions_p50" "count" (median (fun c -> c.transitions));
    metric "engine.open_ms_p50" "ms" (p50 "open" 1e6);
    metric "engine.first_next_ms_p50" "ms" (p50 "next.first" 1e6);
    metric "engine.next_us_per_answer" "us" (ratio (total "next") (answers -. answered) /. 1e3);
    metric "engine.close_ms_p50" "ms" (p50 "close" 1e6);
    metric "conjunct.pushes_per_answer" "ratio" (ratio (sum (st (fun s -> s.pushes))) answers);
    metric "conjunct.pops_per_answer" "ratio" (ratio (sum (st (fun s -> s.pops))) answers);
    metric "conjunct.answers_per_pop" "ratio" (ratio (sum (st (fun s -> s.answers))) (sum (st (fun s -> s.pops))));
    metric "conjunct.drop_visited_ratio" "ratio"
      (ratio (sum (st (fun s -> s.drop_visited))) (sum (st (fun s -> s.pops))));
    metric "conjunct.peak_queue_p50" "count" (median (st (fun s -> s.peak_queue)));
    metric "graph.edges_scanned_per_answer" "ratio" (ratio (sum (st (fun s -> s.edges_scanned))) answers);
    metric "graph.scan_share" "ratio" (ratio (sum (st (fun s -> s.scan_ns))) next_ns);
    metric "seeder.seeds_per_query" "count" (sum (st (fun s -> s.seeds)) /. n);
    metric "seeder.batches_per_query" "count" (sum (st (fun s -> s.batches)) /. n);
    metric "par.shards_per_query" "count" (sum (st (fun s -> s.par_shards)) /. n);
    metric "par.merge_wait_share" "ratio" (ratio (sum (fun c -> c.merge_wait_ns)) next_ns);
    metric "par.imbalance" "ratio" imbalance;
    metric "par.busy_ms_per_query" "ms" (sum (st (fun s -> s.par_busy_total_ns)) /. n /. 1e6);
    metric "join.combos_per_answer" "ratio" (ratio (sum (fun c -> c.join_combos)) answers);
    metric "mem.bytes_peak_p50" "B" (median (st (fun s -> s.mem_bytes_peak)));
    metric "gc.minor_words_per_query" "words"
      (Array.fold_left (fun acc c -> acc +. c.minor_words) 0. counters /. n);
    metric "gc.major_collections_per_kquery" "count" (sum (fun c -> c.major_collections) *. 1000. /. n);
    metric "protocol.parse_us_p50" "us" (serve_metric (fun s -> s.protocol_parse_us));
    metric "protocol.render_us_p50" "us" (serve_metric (fun s -> s.protocol_render_us));
    metric "serve.handle_ms_p50" "ms" (serve_metric (fun s -> s.handle_ms));
    metric "serve.transport_ms_p50" "ms" (serve_metric (fun s -> s.transport_ms));
    metric "admit.shed_ratio" "ratio" (serve_metric (fun s -> s.shed_ratio));
    metric "trace.overhead_pct" "%" overhead_pct;
  ]

(* How far a root span's self times may add up beyond the operation's own
   measured latency: the clock reads and calls between the two pairs of
   readings, and at most one minor collection started by the few words
   allocated there. *)
let span_slack_ns = 2_000_000

(* Under every root span called [root], the self times must add up to the
   latency its operation measured for itself ([latency.(op)], -1 when the
   operation failed), give or take [span_slack_ns]. *)
let check_spans check spans ~root ~latency =
  let gaps =
    List.filter_map
      (fun ((r : Sp.span), sum) -> if r.name = root && latency.(r.op) >= 0 then Some (sum - latency.(r.op)) else None)
      (Sp.root_self_sums spans)
  in
  let bad = List.filter (fun g -> g < 0 || g > span_slack_ns) gaps in
  Printf.printf "# %s spans: self-time sums exceed the measured latency by %d-%d ns\n" root
    (List.fold_left min max_int gaps) (List.fold_left max 0 gaps);
  if bad <> [] then
    fail check (Printf.sprintf "%d %s spans whose self times do not add up to the latency" (List.length bad) root)

(* A traced operation that raised is a failure; the run goes on. *)
let guard check text f =
  match f () with
  | v -> Some v
  | exception e ->
    fail check ("exception on " ^ text ^ ": " ^ Printexc.to_string e);
    None

(* The untraced passes first, then the same passes again, traced. *)
let in_process_trace wl ~path ~goldens ~passes ~next_pass ~spans_out check =
  let graph, ontology, boots = boot_repeatedly path in
  let options = { Core.Options.default with Core.Options.domains = wl.domains } in
  let gc = settler wl in
  let run (op : W.op) =
    Option.fold ~none:0 ~some:(fun (r : result) -> r.latency_ns)
      (guard check op.text (fun () ->
           settled gc (fun () -> engine_query ~graph ~ontology ~options ~limit:wl.limit op.text)))
  in
  let first, next_pass = with_first next_pass in
  List.iter (fun op -> ignore (run op)) (W.first_per_stratum first);
  Gc.compact ();
  let passes = run_passes passes ~next_pass (fun ops -> Array.fold_left (fun acc op -> acc + run op) 0 ops) in
  let ops = Array.concat (List.map fst passes) in
  let base_ns = List.fold_left (fun acc (_, ns) -> acc + ns) 0 passes in
  Gc.compact ();
  Obs.Clock.install now;
  let tr = Sp.create now in
  let latency = Array.make (Array.length ops) (-1) in
  let counters =
    Array.to_list ops
    |> List.mapi (fun i (op : W.op) ->
           guard check op.text (fun () ->
               let r, c =
                 settled gc (fun () -> traced_query tr ~op:i ~root:"query" ~graph ~ontology ~options ~limit:wl.limit op.text)
               in
               latency.(i) <- r.latency_ns;
               if not r.completed then fail check ("stream cut short: " ^ op.text)
               else check_answers check goldens op.text r.answers;
               c))
    |> List.filter_map Fun.id |> Array.of_list
  in
  let spans = Sp.spans tr in
  check_spans check spans ~root:"query" ~latency;
  Sp.write_jsonl spans_out spans;
  let traced_ns = S.sum (Sp.durations "query" spans) in
  ( (if Array.length counters = 0 then []
     else
       layer_metrics ~boots ~server_ready_s:0. ~spans ~counters ~latency_total_ns:traced_ns
         ~overhead_pct:(100. *. (traced_ns -. float_of_int base_ns) /. float_of_int base_ns)
         ~serve:None),
    Array.length ops )

(* The socket run first (untraced, as in the end-to-end run), then the same
   requests replayed in-process through [Daemon.handle_request], untraced
   and traced; every reply must match the socket run's. *)
let server_trace wl ~exe ~path ~dir ~goldens ~passes ~next_pass ~spans_out check =
  let passes, (socket_latency, socket_replies) =
    let server, c, _ = start_server ~exe ~data:path ~dir in
    Fun.protect
      ~finally:(fun () -> stop_server server)
      (fun () ->
        let passes =
          run_passes passes ~next_pass (fun ops ->
              closed_loop c (request_lines ops ~limit:wl.limit))
        in
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        ( passes,
          ( Array.concat (List.map (fun (_, (l, _)) -> l) passes),
            Array.concat (List.map (fun (_, (_, r)) -> r) passes) ) ))
  in
  let ops = Array.concat (List.map fst passes) in
  let lines = Array.concat (List.map (fun (ops, _) -> request_lines ops ~limit:wl.limit) passes) in
  Array.iteri (fun i reply -> check_reply check goldens ops.(i).W.text reply) socket_replies;
  let decoded = Array.map (function Ok reply -> (try decode_response reply with _ -> None) | Error _ -> None) socket_replies in
  let shed = Array.fold_left (fun acc d -> match d with Some (_, Some "shed", _) -> acc + 1 | _ -> acc) 0 decoded in
  let graph, ontology, boots = boot_repeatedly path in
  let t0 = now () in
  let daemon = Server.Daemon.create ~graph ~ontology Server.Daemon.default_config in
  let create_ns = now () - t0 in
  let handle line = Option.value ~default:"" (Server.Daemon.handle_request daemon line) in
  let options = Server.Daemon.default_config.options in
  List.iter (fun (op : W.op) -> ignore (handle (request_line 0 op ~limit:wl.limit))) (W.first_per_stratum ops);
  Gc.compact ();
  let base =
    Array.map
      (fun line ->
        let t = now () in
        ignore (handle line);
        now () - t)
      lines
  in
  Gc.compact ();
  Obs.Clock.install now;
  let tr = Sp.create now in
  let request_latency = Array.make (Array.length ops) (-1) and probe_latency = Array.make (Array.length ops) (-1) in
  let counters =
    Array.to_list ops
    |> List.mapi (fun i (op : W.op) ->
           guard check op.text (fun () ->
               let reply =
                 Sp.record tr ~op:i "request" (fun root ->
                     let t0 = now () in
                     let reply = Sp.record tr ~op:i ~parent:root "serve.handle" (fun _ -> handle lines.(i)) in
                     request_latency.(i) <- now () - t0;
                     reply)
               in
               if decode_response reply <> decoded.(i) then
                 fail check ("in-process reply differs from the socket reply: " ^ op.text);
               ignore (Sp.record tr ~op:i "protocol.parse" (fun _ -> Server.Protocol.parse_request lines.(i)));
               (match Json.parse reply with
               | Ok tree -> ignore (Sp.record tr ~op:i "protocol.render" (fun _ -> Server.Protocol.render tree))
               | Error _ -> fail check ("unparsable reply: " ^ reply));
               let r, c =
                 traced_query tr ~op:i ~root:"engine.probe" ~graph ~ontology ~options ~limit:wl.limit op.text
               in
               probe_latency.(i) <- r.latency_ns;
               check_answers check goldens op.text r.answers;
               c))
    |> List.filter_map Fun.id |> Array.of_list
  in
  let spans = Sp.spans tr in
  check_spans check spans ~root:"request" ~latency:request_latency;
  check_spans check spans ~root:"engine.probe" ~latency:probe_latency;
  Sp.write_jsonl spans_out spans;
  let handle_total = S.sum (Sp.durations "serve.handle" spans) in
  let base_total = float_of_int (Array.fold_left ( + ) 0 base) in
  let p50 name = S.median (Sp.durations name spans) in
  let answered = List.filter (fun i -> Result.is_ok socket_replies.(i)) (List.init (Array.length ops) Fun.id) in
  let root_total = S.sum (Sp.durations "request" spans) in
  ( (if Array.length counters = 0 || answered = [] then []
     else
       let serve =
         {
           protocol_parse_us = p50 "protocol.parse" /. 1e3;
           protocol_render_us = p50 "protocol.render" /. 1e3;
           handle_ms = p50 "serve.handle" /. 1e6;
           transport_ms = S.median (Array.of_list (List.map (fun i -> ms (socket_latency.(i) - base.(i))) answered));
           shed_ratio = float_of_int shed /. float_of_int (Array.length ops);
         }
       in
       layer_metrics ~boots ~server_ready_s:(secs create_ns) ~spans ~counters ~latency_total_ns:handle_total
         ~overhead_pct:(100. *. (root_total -. base_total) /. base_total)
         ~serve:(Some serve)),
    Array.length ops )

(* ---- goldens (regeneration) --------------------------------------- *)

(* The first [limit] answers of one query at [domains]. *)
let top ~graph ~ontology ~domains ~limit text =
  let options = { Core.Options.default with Core.Options.domains } in
  let r = engine_query ~graph ~ontology ~options ~limit text in
  if not r.completed then failwith ("stream cut short: " ^ text);
  r.answers

(* 1-domain answers through the full distance bucket the [limit]-th one
   falls in. *)
let through_last_bucket ~graph ~ontology ~limit text =
  let stream = Core.Engine.open_query ~graph ~ontology (Core.Query_parser.parse text) in
  let rec pull n last acc =
    match Core.Engine.next stream with
    | Some a when n < limit || a.Core.Engine.distance = last -> pull (n + 1) a.distance (D.of_engine a :: acc)
    | _ -> List.rev acc
  in
  let answers = pull 0 (-1) [] in
  Core.Engine.close stream;
  answers

(* The golden stream of one query.  Sequential workloads: the first [limit]
   answers at 1 domain.  Parallel workloads: the stream at the workload's
   domain count, which must be identical at twice that count, and must be
   a ranked prefix of the 1-domain answers (ties at the cut may differ from
   the 1-domain order: the merge breaks them by node id, a sequential join
   by arrival). *)
let golden_answers wl ~graph ~ontology text =
  let limit = wl.limit in
  if not wl.parallel then top ~graph ~ontology ~domains:1 ~limit text
  else
    let par = top ~graph ~ontology ~domains:wl.domains ~limit text in
    let reference = through_last_bucket ~graph ~ontology ~limit text in
    if top ~graph ~ontology ~domains:(2 * wl.domains) ~limit text <> par then
      failwith ("parallel stream differs between domain counts: " ^ text);
    if List.length par <> min limit (List.length reference) || not (D.is_ranked_prefix ~reference par) then
      failwith ("parallel stream is not a ranked prefix of the 1-domain answers: " ^ text);
    par

let regen_goldens wl ~path ~file =
  let graph, ontology, _ = boot path in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun (s : W.stratum) ->
          Array.iter
            (fun c ->
              let text = s.instantiate c in
              let answers = golden_answers wl ~graph ~ontology text in
              Printf.fprintf oc "%s\t%s\t%s\t%d\t%s\n" s.name (draw_to_string s.draw) (D.of_answers answers)
                (List.length answers) text)
            s.constants)
        (wl.strata graph ontology))

(* ---- main --------------------------------------------------------- *)

let () =
  (* a reply socket closed under us must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let data_dir = ref "perfbench/_cache" and goldens_dir = ref "perfbench/goldens" in
  let serve_exe = ref "_build/default/bin/omega_serve.exe" in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flex-topk | join-par | serve-mix");
      ("--seed", Arg.Set_int seed, "N seed of the operation sequence");
      ("--seconds", Arg.Set_int seconds, "S nominal run length (sets the number of passes)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--data-dir", Arg.Set_string data_dir, "DIR dataset cache");
      ("--goldens", Arg.Set_string goldens_dir, "DIR golden digests");
      ("--serve", Arg.Set_string serve_exe, "EXE the omega_serve binary");
      ("--prepare", Arg.Unit (fun () -> mode := `Prepare), " generate the workload's dataset and exit");
      ("--regen-goldens", Arg.Unit (fun () -> mode := `Regen), " rewrite the workload's goldens and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "omega_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  let path = prepare !data_dir wl.dataset in
  match !mode with
  | `Prepare -> ()
  | `Regen -> regen_goldens wl ~path ~file:(golden_file !goldens_dir wl)
  | `Run ->
    let strata, goldens = load_goldens (golden_file !goldens_dir wl) in
    let passes = max 1 (int_of_float (Float.round (float_of_int !seconds /. wl.pass_seconds))) in
    (* a traced run replays its passes twice, untraced and traced *)
    let passes = if !trace = 0 then passes else max 1 (passes / 2) in
    let next_pass = W.passes ~seed:!seed ~passes strata in
    Printf.printf "# workload %s, seed %d, %d passes, trace %d\n%!" wl.name !seed passes !trace;
    let check = { failed = 0; notes = [] } in
    let spans_out = Filename.concat !data_dir (Printf.sprintf "spans-%s-%d.jsonl" wl.name !seed) in
    let metrics, attempted =
      match (!trace, wl.server) with
      | 0, false -> in_process_e2e wl ~path ~goldens ~passes ~next_pass check
      | 0, true -> server_e2e wl ~exe:!serve_exe ~path ~dir:!data_dir ~goldens ~passes ~next_pass check
      | _, false -> in_process_trace wl ~path ~goldens ~passes ~next_pass ~spans_out check
      | _, true -> server_trace wl ~exe:!serve_exe ~path ~dir:!data_dir ~goldens ~passes ~next_pass ~spans_out check
    in
    print_table metrics;
    List.iter (fun n -> Printf.printf "# failure: %s\n" n) (List.rev check.notes);
    print_result ~correct:(check.failed = 0) ~attempted ~failed:check.failed metrics;
    if check.failed > 0 then exit 1
