type reason = Tuple_budget | Deadline | Answer_limit | Memory_budget | Fault of string

type termination =
  | Completed
  | Exhausted of { reason : reason; elapsed_ns : int; tuples : int; answers : int }

(* Monotonic clock behind deadlines — the shared process clock, the same
   ref [Exec_stats.now_ns] aliases.  One [Obs.Clock.install] in a binary's
   init arms every deadline; the default reads nothing, so a governor
   without a deadline pays no syscall anywhere on the hot path. *)
let now_ns = Obs.Clock.now_ns

(* The cross-domain control block behind parallel evaluation: one per query,
   attached to the main governor and to every shard governor [Par] creates.
   Everything multiple domains touch is an [Atomic]; per-domain quantities
   (polls, answer counts, degradation tallies) stay on the individual
   governors and are rolled up by [absorb] when a shard joins.  [closing] is
   the shutdown token of [Par.close]: it stops shard workers cooperatively
   {e without} tripping the query — a stream abandoned by its consumer must
   still report [Completed]. *)
module Shared = struct
  type t = {
    stop : reason option Atomic.t; (* first trip anywhere wins *)
    closing : bool Atomic.t;
    tuples : int Atomic.t; (* the cumulative tuple count of the whole query *)
    live : int Atomic.t; (* Mem live-bytes estimate, summed over domains *)
    peak : int Atomic.t;
    degrade_prov : bool Atomic.t;
    degrade_psi : bool Atomic.t;
    mutable on_trip : unit -> unit;
        (* installed by [Par]: wakes workers parked on a full shard queue so
           a trip (or close) never leaves one blocked forever *)
  }

  let create () =
    {
      stop = Atomic.make None;
      closing = Atomic.make false;
      tuples = Atomic.make 0;
      live = Atomic.make 0;
      peak = Atomic.make 0;
      degrade_prov = Atomic.make false;
      degrade_psi = Atomic.make false;
      on_trip = (fun () -> ());
    }

  let rec bump_peak t candidate =
    let seen = Atomic.get t.peak in
    if candidate > seen && not (Atomic.compare_and_set t.peak seen candidate) then
      bump_peak t candidate

  let close t =
    Atomic.set t.closing true;
    t.on_trip ()

  let stopped t = Atomic.get t.stop <> None || Atomic.get t.closing

  (* additive: a query with several parallel conjuncts shares one block, and
     each [Par] instance needs its own broadcast run on a trip *)
  let set_on_trip t f =
    let prev = t.on_trip in
    t.on_trip <- (fun () -> prev (); f ())
end

type t = {
  mutable stop : reason option;
  mutable shared : Shared.t option; (* None on the sequential path *)
  is_shard : bool;
      (* only worker-domain governors obey the [closing] token: the query's
         own governor must survive one parallel conjunct shutting down and
         keep governing the rest of the stream *)
  mutable tuples : int;
  tuple_budget : int; (* max_int = unlimited *)
  mutable answers : int;
  answer_cap : int; (* max_int = uncapped *)
  deadline : int; (* absolute ns; max_int = no deadline *)
  start_ns : int;
  mutable polls : int; (* amortises the clock read of deadline polling *)
  mem : Mem.t;
  mem_budget : int; (* bytes; max_int = unlimited *)
  (* The degradation ladder (monotone: a stage, once reached, stays on).
     Stage 1 at 50% of the budget: drop provenance arenas.  Stage 2 at
     75%: stop escalating the psi window.  100%: trip [Memory_budget]. *)
  mutable degrade_prov : bool;
  mutable degrade_psi : bool;
  mutable drops_prov : int; (* times a conjunct actually dropped its arena *)
  mutable shrinks_psi : int; (* times an evaluator declined a psi escalation *)
}

let create ?timeout_ns ?max_tuples ?max_answers ?max_memory_bytes () =
  let start_ns = !now_ns () in
  {
    stop = None;
    shared = None;
    is_shard = false;
    tuples = 0;
    tuple_budget = Option.value max_tuples ~default:max_int;
    answers = 0;
    answer_cap = Option.value max_answers ~default:max_int;
    deadline = (match timeout_ns with None -> max_int | Some ns -> start_ns + ns);
    start_ns;
    polls = 0;
    mem = Mem.create ();
    mem_budget = Option.value max_memory_bytes ~default:max_int;
    degrade_prov = false;
    degrade_psi = false;
    drops_prov = 0;
    shrinks_psi = 0;
  }

let unlimited () = create ()

let reason_string = function
  | Tuple_budget -> "tuple-budget"
  | Deadline -> "deadline"
  | Answer_limit -> "answer-limit"
  | Memory_budget -> "memory-budget"
  | Fault name -> "fault:" ^ name

let trip t reason =
  if t.stop = None then begin
    t.stop <- Some reason;
    if Obs.Flight.enabled () then
      Obs.Flight.record
        (Obs.Flight.Trip { reason = reason_string reason; tuples = t.tuples; answers = t.answers });
    (match t.shared with
    | None -> ()
    | Some s ->
      (* first trip across all domains wins; losers keep their local stop
         (they unwind either way) but never override the shared reason *)
      if Atomic.compare_and_set s.Shared.stop None (Some reason) then ();
      s.Shared.on_trip ())
  end

let fault t name = trip t (Fault name)
let cancel ?(reason = "cancelled") t = trip t (Fault reason)

(* Adopt a trip raised on another domain: the local stop takes the shared
   reason, so [termination] on any of the query's governors reports the
   same cause.  The adoption is idempotent and main-thread-visible work
   only (the shared slot is written once, by the winner's CAS). *)
let sync t =
  if t.stop = None then
    match t.shared with
    | None -> ()
    | Some s -> ( match Atomic.get s.Shared.stop with Some r -> t.stop <- Some r | None -> ())

let tripped t =
  sync t;
  t.stop

(* The cooperative check of the hot loops: false means unwind now.  With no
   deadline this is two compares; with one, the clock is read every 16th
   poll so a tight loop pays at most 1/16th of a clock read per iteration.
   Under a shared control block the poll also observes trips raised on
   other domains and the [closing] token of [Par.close]. *)
let poll t =
  match t.stop with
  | Some _ -> false
  | None ->
    (match t.shared with
    | None -> true
    | Some s ->
      sync t;
      t.stop = None && not (t.is_shard && Atomic.get s.Shared.closing))
    && (t.deadline = max_int
       ||
       begin
         t.polls <- t.polls + 1;
         t.polls land 15 <> 0
         || !now_ns () <= t.deadline
         ||
         (trip t Deadline;
          false)
       end)

let tick_tuple t =
  t.tuples <- t.tuples + 1;
  match t.shared with
  | None -> if t.tuples > t.tuple_budget && t.stop = None then trip t Tuple_budget
  | Some s ->
    (* the budget is cumulative over the whole query, so the ceiling is
       checked against the query-wide atomic, not the per-domain share *)
    let total = Atomic.fetch_and_add s.Shared.tuples 1 + 1 in
    if total > t.tuple_budget && t.stop = None then trip t Tuple_budget

(* --- memory accounting ------------------------------------------------

   Charging is always on (two adds on an int record — the accountant is
   free when no budget is set); the ladder is evaluated only under a
   budget.  Thresholds are checked on charge, never on release: once a
   stage is reached it stays on, so degradation is monotone and a query
   cannot flap between keeping and dropping provenance. *)

let charge_mem t bytes =
  Mem.charge t.mem bytes;
  match t.shared with
  | None ->
    if t.mem_budget <> max_int then begin
      let live = Mem.live t.mem in
      if live > t.mem_budget then begin
        if t.stop = None then trip t Memory_budget
      end
      else if live > t.mem_budget / 4 * 3 then begin
        t.degrade_prov <- true;
        t.degrade_psi <- true
      end
      else if live > t.mem_budget / 2 then t.degrade_prov <- true
    end
  | Some s ->
    (* the budget and the ladder govern the query-wide footprint: stages
       reached on one domain apply to every domain (the flags are shared
       atomics and, like the sequential ladder, never turn back off) *)
    let live = Atomic.fetch_and_add s.Shared.live bytes + bytes in
    Shared.bump_peak s live;
    if t.mem_budget <> max_int then
      if live > t.mem_budget then begin
        if t.stop = None then trip t Memory_budget
      end
      else if live > t.mem_budget / 4 * 3 then begin
        Atomic.set s.Shared.degrade_prov true;
        Atomic.set s.Shared.degrade_psi true
      end
      else if live > t.mem_budget / 2 then Atomic.set s.Shared.degrade_prov true

let release_mem t bytes =
  Mem.release t.mem bytes;
  match t.shared with
  | None -> ()
  | Some s -> ignore (Atomic.fetch_and_add s.Shared.live (-bytes))

let mem_live t =
  match t.shared with None -> Mem.live t.mem | Some s -> Atomic.get s.Shared.live

let mem_peak t =
  match t.shared with None -> Mem.peak t.mem | Some s -> Atomic.get s.Shared.peak

let drop_provenance t =
  match t.shared with None -> t.degrade_prov | Some s -> Atomic.get s.Shared.degrade_prov

let shrink_psi t =
  match t.shared with None -> t.degrade_psi | Some s -> Atomic.get s.Shared.degrade_psi
let note_dropped_provenance t = t.drops_prov <- t.drops_prov + 1

(* An evaluator that declines a psi escalation cannot make further
   progress — everything at or below the current ceiling is already out —
   so recording the shrink also terminates the query.  The emitted answers
   are exactly the answers of distance <= psi: an exact ranked prefix. *)
let note_shrink_psi t =
  t.shrinks_psi <- t.shrinks_psi + 1;
  if t.stop = None then trip t Memory_budget

let degrade_counts t = (t.drops_prov, t.shrinks_psi)

let note_answer t =
  t.answers <- t.answers + 1;
  if t.answers >= t.answer_cap && t.stop = None then trip t Answer_limit

let tuples t =
  match t.shared with None -> t.tuples | Some s -> Atomic.get s.Shared.tuples

let answers t = t.answers
let elapsed_ns t = !now_ns () - t.start_ns

let termination t =
  match tripped t with
  | None -> Completed
  | Some reason ->
    Exhausted { reason; elapsed_ns = elapsed_ns t; tuples = tuples t; answers = t.answers }

(* --- parallel attachment ---------------------------------------------- *)

let share t =
  match t.shared with
  | Some s -> s
  | None ->
    let s = Shared.create () in
    (* fold whatever the governor accounted before going parallel into the
       shared totals, so the cumulative budgets keep their meaning *)
    Atomic.set s.Shared.tuples t.tuples;
    Atomic.set s.Shared.live (Mem.live t.mem);
    Atomic.set s.Shared.peak (Mem.peak t.mem);
    if t.degrade_prov then Atomic.set s.Shared.degrade_prov true;
    if t.degrade_psi then Atomic.set s.Shared.degrade_psi true;
    (match t.stop with Some r -> Atomic.set s.Shared.stop (Some r) | None -> ());
    t.shared <- Some s;
    s

let shard_of t =
  let s = share t in
  {
    stop = None;
    shared = Some s;
    is_shard = true;
    tuples = 0;
    tuple_budget = t.tuple_budget;
    answers = 0;
    answer_cap = max_int; (* answers are only counted on the merge side *)
    deadline = t.deadline; (* the same absolute instant on every domain *)
    start_ns = t.start_ns;
    polls = 0;
    mem = Mem.create ();
    mem_budget = t.mem_budget;
    degrade_prov = false;
    degrade_psi = false;
    drops_prov = 0;
    shrinks_psi = 0;
  }

(* Roll a joined shard's per-domain tallies into the query's governor.
   Only the counters that are {e not} already shared flow here; tuple and
   memory totals lived in the shared atomics all along. *)
let absorb t ~from =
  t.drops_prov <- t.drops_prov + from.drops_prov;
  t.shrinks_psi <- t.shrinks_psi + from.shrinks_psi

let closing t =
  match t.shared with None -> false | Some s -> Atomic.get s.Shared.closing

let pp_termination ppf = function
  | Completed -> Format.fprintf ppf "completed"
  | Exhausted { reason; elapsed_ns; tuples; answers } ->
    Format.fprintf ppf "exhausted (%s) after %d answer(s), %d tuple(s), %.2f ms"
      (reason_string reason) answers tuples
      (float_of_int elapsed_ns /. 1e6)
