(* Domain-pool evaluation with a deterministic ranked merge (DESIGN.md
   "Parallel evaluation").

   Each shard runs an ordinary sequential evaluator over its own partition
   of the work (seed vertices, or alternation parts) on its own OCaml
   domain, with its own governor ([Governor.shard_of]) and its own private
   metrics registry — nothing on a worker's hot path is shared except the
   query-wide atomics of [Governor.Shared].  Workers deliver answers into
   per-shard pending lists under one mutex; the consuming domain drains
   them into a distance-bucketed staging queue and releases ("seals") a
   bucket only once no shard can still produce an answer for it.

   The sealing rule.  A shard's stream is non-decreasing in distance up to
   [slack] (0 for plain conjuncts; [phi - 1] for psi-levelled evaluators,
   whose emission order is only non-decreasing across levels): after a
   shard has delivered an answer at distance [last], everything it delivers
   later is >= [last - slack].  So bucket [d] is complete once every shard
   that might still owe answers satisfies [last - slack > d].  A shard that
   finished by exhausting its work ([complete]) owes nothing and drops out
   of the bound; a shard that finished for any other reason — its governor
   tripped, or it observed the query-wide stop — may have died holding
   undelivered answers at any distance >= [last - slack], so its term stays
   in the min forever and the bound freezes at its frontier.  (The
   recorder's postmortems for ROADMAP open item 5 caught the previous rule
   — dropping *every* finished shard — emitting a bucket that was missing
   a tripped shard's undelivered answers when the consumer lost the wake
   race after a trip.)  Sealed buckets are sorted ascending [(x, y)] before
   release — the documented tie-break that makes the merged stream
   identical at any domain count >= 2.

   The bound [min over owing shards of (last - slack)] is monotone
   (per-shard [last] never decreases; a shard completing only removes a
   term from the min; an incomplete shard's term freezes), so buckets are
   sealed exactly once and the output is globally non-decreasing in
   distance.  After an incomplete finish the query-wide stop is already
   set, so the consumer never waits on a frozen bound — it unwinds through
   its next governor poll with the sealed prefix, which is exact. *)

type outcome = {
  o_stats : Exec_stats.t; (* copied by the worker at its end — never shared live *)
  o_registry : Obs.Metrics.t;
  o_gov : Governor.t;
}

type shard = {
  gov : Governor.t;
  mutable pending : Conjunct.answer list; (* newest first; drained by the consumer *)
  mutable qlen : int;
  mutable last : int; (* max distance delivered; -1 before the first answer *)
  mutable done_ : bool;
  mutable complete : bool;
      (* [done_] with all work delivered: only such shards leave the seal
         bound.  A tripped or stopped shard stays [done_ && not complete]. *)
  mutable delivered : int; (* answers pushed; heartbeat cadence + flight totals *)
  mutable seen_ns : int; (* last delivery timestamp (clocked runs); stall watchdog *)
  mutable stalled : bool; (* one Stall event per silence episode *)
  mutable outcome : outcome option;
  mutable failure : exn option; (* non-failpoint worker crash, re-raised at join *)
}

type t = {
  n : int;
  label : string; (* trace-lane prefix: workers name themselves "<label> <i>" *)
  slack : int;
  flow : int; (* flight-recorder flow id for this merge instance *)
  queue_cap : int;
  governor : Governor.t; (* the query's governor (consumer side) *)
  shared : Governor.Shared.t;
  metrics : Obs.Metrics.t; (* the stream's registry; shard registries merge in at join *)
  m : Mutex.t;
  progress : Condition.t; (* consumer waits here for pushes / completions *)
  space : Condition.t; (* workers wait here when their pending list is full *)
  shards : shard array;
  mutable handles : unit Domain.t array;
  buffer : Conjunct.answer Dr_queue.t; (* staging: drained but not yet sealed *)
  mutable ready : Conjunct.answer list; (* sealed, canonically ordered, ready to emit *)
  seen : (int * int, unit) Hashtbl.t option;
      (* part-sharding only: shards have independent emitted-tables, so the
         same (x, y) can arrive from several shards; the first sealed
         occurrence is the cheapest (buckets seal in ascending distance) and
         later ones are dropped here.  [None] for seed-sharding, where the
         partition key is x itself and cross-shard duplicates cannot occur. *)
  mutable joined : bool;
  h_merge_wait : Obs.Metrics.histogram;
  h_shard_answers : Obs.Metrics.histogram;
  h_shard_busy : Obs.Metrics.histogram;
}

(* Per-shard pending-list cap default: bounds the unmerged backlog a fast
   shard can accumulate while a slow one holds the seal bound back.
   Workers park on [space] at the cap and the consumer's drain wakes them,
   so the cap trades merge latency against memory without ever
   deadlocking.  [Options.par_queue_cap] overrides it per query. *)
let default_queue_cap = 8192

let worker t i build =
  let sh = t.shards.(i) in
  let registry = Obs.Metrics.create () in
  let stats_fn = ref Exec_stats.create in
  (* name this domain's trace lane before any span lands on it *)
  Obs.Flight.set_thread_name (Printf.sprintf "%s %d" t.label i);
  let clocked = Obs.Clock.installed () in
  let t0 = if clocked then !Obs.Clock.now_ns () else 0 in
  (* benign unlocked int store: the watchdog only compares it to the clock *)
  sh.seen_ns <- t0;
  if Obs.Flight.enabled () then Obs.Flight.record ~flow:t.flow ~shard:i Obs.Flight.Shard_start;
  (try
     let pull, stats = build ~shard:i ~governor:sh.gov ~metrics:registry in
     stats_fn := stats;
     let rec loop () =
       match pull () with
       | None -> ()
       | Some (a : Conjunct.answer) ->
         let fl = Obs.Flight.enabled () in
         Mutex.lock t.m;
         if sh.qlen >= t.queue_cap && not (Governor.Shared.stopped t.shared) then begin
           if fl then Obs.Flight.record ~flow:t.flow ~shard:i (Obs.Flight.Park { qlen = sh.qlen });
           while sh.qlen >= t.queue_cap && not (Governor.Shared.stopped t.shared) do
             Condition.wait t.space t.m
           done;
           if fl then Obs.Flight.record ~flow:t.flow ~shard:i Obs.Flight.Unpark
         end;
         let stopped = Governor.Shared.stopped t.shared in
         if not stopped then begin
           sh.pending <- a :: sh.pending;
           sh.qlen <- sh.qlen + 1;
           sh.delivered <- sh.delivered + 1;
           if a.Conjunct.dist > sh.last then sh.last <- a.Conjunct.dist;
           if clocked then sh.seen_ns <- !Obs.Clock.now_ns ();
           sh.stalled <- false;
           if fl then begin
             if Obs.Flight.detail () then
               Obs.Flight.record ~flow:t.flow ~shard:i
                 (Obs.Flight.Deliver { dist = a.Conjunct.dist });
             if sh.delivered land 63 = 0 then
               Obs.Flight.record ~flow:t.flow ~shard:i
                 (Obs.Flight.Heartbeat { qlen = sh.qlen; last = sh.last })
           end;
           Condition.signal t.progress
         end;
         Mutex.unlock t.m;
         if not stopped then loop ()
     in
     loop ()
   with
   | Failpoints.Injected name ->
     (* the same conversion [Engine.next] applies on the sequential path, so
        the termination taxonomy does not depend on the domain count *)
     Governor.fault sh.gov name
   | e ->
     sh.failure <- Some e;
     Governor.fault sh.gov "worker-exception");
  let stats = Exec_stats.copy (!stats_fn ()) in
  (* the shard's wall time, birth to last delivery: merged additively into
     [par_busy_total_ns] and by max into [par_busy_max_ns], so the stream
     aggregate reads total shard work and the critical path directly *)
  if clocked then begin
    let busy = !Obs.Clock.now_ns () - t0 in
    stats.Exec_stats.par_busy_total_ns <- busy;
    stats.Exec_stats.par_busy_max_ns <- busy
  end;
  let out = { o_stats = stats; o_registry = registry; o_gov = sh.gov } in
  (* the shard completed iff its pull stream ran dry on its own: neither
     this shard's governor nor the query-wide stop cut it short *)
  let complete =
    Governor.tripped sh.gov = None && not (Governor.Shared.stopped t.shared)
  in
  Mutex.lock t.m;
  sh.outcome <- Some out;
  sh.done_ <- true;
  sh.complete <- complete;
  if Obs.Flight.enabled () then
    Obs.Flight.record ~flow:t.flow ~shard:i
      (Obs.Flight.Shard_done { complete; answers = sh.delivered });
  Condition.broadcast t.progress;
  Mutex.unlock t.m

let create ~domains ~slack ~governor ~metrics ?(label = "shard") ?(dedup = false)
    ?(queue_cap = default_queue_cap) ~build () =
  let n = max 1 domains in
  let shared = Governor.share governor in
  let shards =
    Array.init n (fun _ ->
        {
          gov = Governor.shard_of governor;
          pending = [];
          qlen = 0;
          last = -1;
          done_ = false;
          complete = false;
          delivered = 0;
          seen_ns = 0;
          stalled = false;
          outcome = None;
          failure = None;
        })
  in
  let t =
    {
      n;
      label;
      slack = max 0 slack;
      flow = Obs.Flight.new_flow ();
      queue_cap = max 1 queue_cap;
      governor;
      shared;
      metrics;
      m = Mutex.create ();
      progress = Condition.create ();
      space = Condition.create ();
      shards;
      handles = [||];
      buffer = Dr_queue.create ();
      ready = [];
      seen = (if dedup then Some (Hashtbl.create 256) else None);
      joined = false;
      h_merge_wait = Obs.Metrics.histogram metrics "par_merge_wait_ns";
      h_shard_answers = Obs.Metrics.histogram metrics "par_shard_answers";
      h_shard_busy = Obs.Metrics.histogram metrics "par_shard_busy_ns";
    }
  in
  if Obs.Flight.enabled () then
    Obs.Flight.record ~flow:t.flow (Obs.Flight.Flow_open { shards = n; slack = t.slack; label });
  (* A trip (or close) raised anywhere must wake workers parked on [space]
     and a consumer parked on [progress]; the hook takes [t.m], so no
     caller of trip/close may hold it — [Par] itself only trips through
     governor polls made outside the mutex. *)
  Governor.Shared.set_on_trip shared (fun () ->
      Mutex.lock t.m;
      if Obs.Flight.enabled () then Obs.Flight.record ~flow:t.flow Obs.Flight.Stop;
      Condition.broadcast t.space;
      Condition.broadcast t.progress;
      Mutex.unlock t.m);
  t.handles <- Array.init n (fun i -> Domain.spawn (fun () -> worker t i build));
  t

let shards t = t.n

(* --- consumer side (all under t.m unless noted) ----------------------- *)

let drain_locked t =
  let drained = ref false in
  Array.iter
    (fun sh ->
      if sh.pending <> [] then begin
        drained := true;
        List.iter
          (fun (a : Conjunct.answer) -> Dr_queue.push t.buffer ~dist:a.dist ~final:false a)
          (List.rev sh.pending);
        sh.pending <- [];
        sh.qlen <- 0
      end)
    t.shards;
  if !drained then Condition.broadcast t.space

(* The seal bound.  A shard leaves the min only by *completing*; a shard
   that finished without completing (trip / stop) freezes its term, because
   its undelivered answers could land anywhere at or above it. *)
let bound_locked t =
  let b = ref max_int in
  Array.iter
    (fun sh -> if not (sh.done_ && sh.complete) then b := min !b (sh.last - t.slack))
    t.shards;
  !b

let seal_locked t ~bound =
  let batch = ref [] in
  let rec pop () =
    match Dr_queue.min_distance t.buffer with
    | Some d when d < bound -> (
      match Dr_queue.pop t.buffer with
      | Some (a, _, _) ->
        batch := a :: !batch;
        pop ()
      | None -> ())
    | _ -> ()
  in
  pop ();
  !batch

(* The consumer-side stall watchdog: a shard silent past the threshold
   (clocked runs with the recorder on) gets one Stall event per episode;
   the next delivery re-arms it. *)
let watchdog_locked t =
  let now = !Obs.Clock.now_ns () in
  Array.iteri
    (fun i sh ->
      if
        (not sh.done_)
        && (not sh.stalled)
        && sh.seen_ns > 0
        && now - sh.seen_ns > !Obs.Flight.stall_threshold_ns
      then begin
        sh.stalled <- true;
        Obs.Flight.record ~flow:t.flow ~shard:i
          (Obs.Flight.Stall { silent_ns = now - sh.seen_ns })
      end)
    t.shards

(* The deterministic tie-break: ascending (dist, x, y).  Shard pops arrive
   min-distance-first but LIFO within a bucket, so the sort both fixes the
   in-bucket order and interleaves the (already ascending) buckets of a
   multi-bucket batch correctly. *)
let canonicalize t batch =
  let sorted =
    List.sort
      (fun (a : Conjunct.answer) (b : Conjunct.answer) ->
        let c = compare a.dist b.dist in
        if c <> 0 then c
        else
          let c = compare a.x b.x in
          if c <> 0 then c else compare a.y b.y)
      batch
  in
  match t.seen with
  | None -> sorted
  | Some tbl ->
    List.filter
      (fun (a : Conjunct.answer) ->
        if Hashtbl.mem tbl (a.x, a.y) then false
        else begin
          Hashtbl.add tbl (a.x, a.y) ();
          true
        end)
      sorted

let join_and_rollup t =
  if not t.joined then begin
    t.joined <- true;
    Array.iter Domain.join t.handles;
    Array.iter
      (fun sh ->
        match sh.outcome with
        | None -> ()
        | Some o ->
          Obs.Metrics.merge_into t.metrics o.o_registry;
          Governor.absorb t.governor ~from:o.o_gov;
          Obs.Metrics.observe t.h_shard_answers o.o_stats.Exec_stats.answers;
          (* gated like h_merge_wait: a clockless 0 is "unmeasured", not a
             distribution point *)
          if o.o_stats.Exec_stats.par_busy_total_ns > 0 then
            Obs.Metrics.observe t.h_shard_busy o.o_stats.Exec_stats.par_busy_total_ns)
      t.shards;
    (* surface genuine worker crashes (anything but an injected failpoint)
       on the consuming domain rather than silently reporting a Fault *)
    Array.iter
      (fun sh -> match sh.failure with Some e -> raise e | None -> ())
      t.shards
  end

let close t =
  if not t.joined then begin
    Governor.Shared.close t.shared;
    join_and_rollup t
  end

let emit t a rest =
  t.ready <- rest;
  if Obs.Flight.detail () then
    Obs.Flight.record ~flow:t.flow
      (Obs.Flight.Emit { dist = a.Conjunct.dist; x = a.Conjunct.x; y = a.Conjunct.y });
  Some a

let next t =
  match t.ready with
  | a :: rest -> emit t a rest
  | [] ->
    if t.joined then None
    else if not (Governor.poll t.governor) then begin
      (* tripped: the emitted sealed prefix is exact; discard the rest *)
      join_and_rollup t;
      None
    end
    else begin
      let clocked = Obs.Clock.installed () in
      let fl = Obs.Flight.enabled () in
      let exhausted = ref false in
      Mutex.lock t.m;
      let rec attempt () =
        drain_locked t;
        let bound = bound_locked t in
        (match seal_locked t ~bound with
        | [] ->
          if bound = max_int then exhausted := true (* every shard done, buffer flushed *)
          else if not (Governor.Shared.stopped t.shared) then begin
            let t0 = if clocked then !Obs.Clock.now_ns () else 0 in
            Condition.wait t.progress t.m;
            if clocked then begin
              Obs.Metrics.observe t.h_merge_wait (!Obs.Clock.now_ns () - t0);
              if fl then watchdog_locked t
            end;
            attempt ()
          end
          (* else: stopped — unwind with nothing ready; handled below *)
        | batch -> (
          if fl then
            Obs.Flight.record ~flow:t.flow
              (Obs.Flight.Seal
                 {
                   bound;
                   batch = List.length batch;
                   inputs =
                     Array.to_list
                       (Array.mapi
                          (fun j sh ->
                            {
                              Obs.Flight.i_shard = j;
                              i_last = sh.last;
                              i_state = (if not sh.done_ then 0 else if sh.complete then 1 else 2);
                            })
                          t.shards);
                 });
          (* a part-sharded batch can dedup away entirely: keep merging
             rather than falling through to the stopped/exhausted exit *)
          match canonicalize t batch with [] -> attempt () | ready -> t.ready <- ready))
      in
      attempt ();
      Mutex.unlock t.m;
      if !exhausted then begin
        join_and_rollup t;
        None
      end
      else
        match t.ready with
        | a :: rest -> emit t a rest
        | [] ->
          (* a trip or close stopped the merge between polls *)
          join_and_rollup t;
          None
    end

let merge_stats t ~into =
  Mutex.lock t.m;
  Array.iter
    (fun sh ->
      match sh.outcome with Some o -> Exec_stats.merge_into into o.o_stats | None -> ())
    t.shards;
  Mutex.unlock t.m

let shard_report t =
  Mutex.lock t.m;
  let report = ref [] in
  Array.iteri
    (fun i sh ->
      match sh.outcome with
      | Some o ->
        report :=
          (i, o.o_stats.Exec_stats.par_busy_total_ns, o.o_stats.Exec_stats.answers) :: !report
      | None -> ())
    t.shards;
  Mutex.unlock t.m;
  List.rev !report
