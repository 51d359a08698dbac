(* Spans the benchmark records around its own calls into the program.

   A span is a named interval on the monotonic clock, tied to the operation
   (query or request) it belongs to and to the span that caused it.  Spans
   stay in memory while the run lasts and are written out when it ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** the operation (query or request) index *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

type t = { now : unit -> int; mutable spans : span list; mutable next_id : int }

let create now = { now; spans = []; next_id = 0 }

(* Run [f] inside a span; [f] receives the new span's id so nested calls
   can name it as their parent. *)
let record t ~op ?(parent = -1) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let start_ns = t.now () in
  let r = f id in
  let stop_ns = t.now () in
  t.spans <- { id; parent; op; name; start_ns; stop_ns } :: t.spans;
  r

let spans t = List.rev t.spans
let duration s = s.stop_ns - s.start_ns

(* Durations of the spans called [name], in nanoseconds. *)
let durations name spans =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (float_of_int (duration s)) else None) spans)

(* Length of the union of the children's intervals, clipped to the
   parent's — overlapping children are counted once. *)
let covered parent children =
  let clip c = (max c.start_ns parent.start_ns, min c.stop_ns parent.stop_ns) in
  let ivs = List.sort compare (List.map clip children) in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = max a reach in
        if b > a then (total + (b - a), b) else (total, reach))
      (0, min_int) ivs
  in
  total

(* Every span paired with its self time: its duration minus the part of it
   its children cover. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map (fun s -> (s, duration s - covered s (Hashtbl.find_all children s.id))) spans

(* Every root span paired with the sum of the self times in its subtree:
   its duration when children neither escape their parents nor overlap. *)
let root_self_sums spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s = if s.parent < 0 then s else root_of (Hashtbl.find by_id s.parent) in
  let sums = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      let r = root_of s in
      Hashtbl.replace sums r.id (self + Option.value ~default:0 (Hashtbl.find_opt sums r.id)))
    (self_times spans);
  List.filter_map (fun s -> if s.parent < 0 then Some (s, Hashtbl.find sums s.id) else None) spans

(* Roots whose subtree's self times do not add up to the root's duration
   (children escaping their parent, or siblings overlapping). *)
let inconsistent_roots spans =
  List.filter_map (fun (r, sum) -> if sum <> duration r then Some r else None) (root_self_sums spans)

let to_json s =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int s.id);
      ("parent", Obs.Json.Int s.parent);
      ("op", Obs.Json.Int s.op);
      ("name", Obs.Json.String s.name);
      ("start_ns", Obs.Json.Int s.start_ns);
      ("stop_ns", Obs.Json.Int s.stop_ns);
    ]

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Obs.Json.to_channel oc (to_json s);
          output_char oc '\n')
        spans)
