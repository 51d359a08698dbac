type reason = Tuple_budget | Deadline | Answer_limit | Memory_budget | Fault of string

type termination =
  | Completed
  | Exhausted of { reason : reason; elapsed_ns : int; tuples : int; answers : int }

type t = {
  mutable stop : reason option;
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
  let start_ns = !Obs.Clock.now_ns () in
  {
    stop = None;
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
        (Obs.Flight.Trip { reason = reason_string reason; tuples = t.tuples; answers = t.answers })
  end

let fault t name = trip t (Fault name)
let cancel ?(reason = "cancelled") t = trip t (Fault reason)

let tripped t = t.stop

(* The cooperative check of the hot loops: false means unwind now.  With no
   deadline this is two compares; with one, the clock is read every 16th
   poll so a tight loop pays at most 1/16th of a clock read per iteration. *)
let poll t =
  match t.stop with
  | Some _ -> false
  | None ->
    t.deadline = max_int
    ||
    begin
      t.polls <- t.polls + 1;
      t.polls land 15 <> 0
      || !Obs.Clock.now_ns () <= t.deadline
      ||
      (trip t Deadline;
       false)
    end

let tick_tuples t n =
  t.tuples <- t.tuples + n;
  if t.tuples > t.tuple_budget && t.stop = None then trip t Tuple_budget

(* --- memory accounting ------------------------------------------------

   Charging is always on (two adds on an int record — the accountant is
   free when no budget is set); the ladder is evaluated only under a
   budget.  Thresholds are checked on charge, never on release: once a
   stage is reached it stays on, so degradation is monotone and a query
   cannot flap between keeping and dropping provenance. *)

let charge_mem t bytes =
  Mem.charge t.mem bytes;
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

let release_mem t bytes = Mem.release t.mem bytes
let mem_peak t = Mem.peak t.mem
let drop_provenance t = t.degrade_prov
let shrink_psi t = t.degrade_psi
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

let tuples t = t.tuples

let answers t = t.answers
let elapsed_ns t = !Obs.Clock.now_ns () - t.start_ns

let termination t =
  match tripped t with
  | None -> Completed
  | Some reason ->
    Exhausted { reason; elapsed_ns = elapsed_ns t; tuples = tuples t; answers = t.answers }
