type bucket_row = { lo : int; hi : int; popped : int; answers : int }
type op_stat = { op : string; op_count : int; op_cost : int }

type t = {
  buckets : bucket_row list;
  drop_visited : int;
  drop_dup : int;
  pruned : int;
  queue_left : int;
  pops : int;
  answers : int;
  ops : op_stat list;
}

(* op name in the report → histogram name in the registry/manifest *)
let op_histograms =
  [
    ("ins", "ops_insert");
    ("del", "ops_delete");
    ("sub", "ops_subst");
    ("relax-sp", "ops_relax_beta");
    ("relax-dr", "ops_relax_gamma");
  ]

let of_metrics m =
  let hist name = Metrics.buckets (Metrics.histogram m name) in
  let cnt name = Metrics.value (Metrics.counter m name) in
  let popped = hist "pop_distance" in
  let answered = hist "answer_distance" in
  (* Align the two histograms on the union of their (lo, hi) bucket keys —
     both use the shared log₂ boundaries, so equal lows mean equal
     buckets. *)
  let keys =
    List.sort_uniq compare (List.map (fun (lo, hi, _) -> (lo, hi)) (popped @ answered))
  in
  let count_in rows (lo, hi) =
    match List.find_opt (fun (l, h, _) -> l = lo && h = hi) rows with
    | Some (_, _, n) -> n
    | None -> 0
  in
  let buckets =
    List.map
      (fun (lo, hi) ->
        { lo; hi; popped = count_in popped (lo, hi); answers = count_in answered (lo, hi) })
      keys
  in
  let pushes = cnt "pushes" in
  let pops = cnt "pops" in
  {
    buckets;
    drop_visited = cnt "drop_visited";
    drop_dup = cnt "drop_dup";
    pruned = cnt "pruned";
    queue_left = max 0 (pushes - pops);
    pops;
    answers = cnt "answers";
    ops =
      List.map
        (fun (op, h) ->
          let hh = Metrics.histogram m h in
          { op; op_count = Metrics.h_count hh; op_cost = Metrics.h_sum hh })
        op_histograms;
  }

let pp_bound ppf b =
  if b = min_int then Format.pp_print_string ppf "-inf"
  else if b = max_int then Format.pp_print_string ppf "inf"
  else Format.pp_print_int ppf b

let pp ppf t =
  Format.fprintf ppf "@[<v>profile:@,";
  Format.fprintf ppf "  distance buckets (tuples popped -> answers emitted):@,";
  if t.buckets = [] then Format.fprintf ppf "    (none)@,";
  List.iter
    (fun b ->
      Format.fprintf ppf "    [%a..%a]: %d popped -> %d answers@," pp_bound b.lo pp_bound b.hi
        b.popped b.answers)
    t.buckets;
  Format.fprintf ppf "  discards: visited-dedup=%d duplicate-final=%d pruned-by-psi=%d \
                      left-in-queue=%d@,"
    t.drop_visited t.drop_dup t.pruned t.queue_left;
  let live_ops = List.filter (fun o -> o.op_count > 0) t.ops in
  if live_ops = [] then Format.fprintf ppf "  operations: none (exact answers only)@,"
  else begin
    Format.fprintf ppf "  operations:@,";
    List.iter
      (fun o -> Format.fprintf ppf "    %s: %d ops, total cost %d@," o.op o.op_count o.op_cost)
      live_ops
  end;
  Format.fprintf ppf "  totals: pops=%d answers=%d@]" t.pops t.answers

let to_json t =
  Json.Obj
    [
      ( "buckets",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("lo", if b.lo = min_int then Json.Null else Json.Int b.lo);
                   ("hi", if b.hi = max_int then Json.Null else Json.Int b.hi);
                   ("popped", Json.Int b.popped);
                   ("answers", Json.Int b.answers);
                 ])
             t.buckets) );
      ( "discards",
        Json.Obj
          [
            ("visited_dedup", Json.Int t.drop_visited);
            ("duplicate_final", Json.Int t.drop_dup);
            ("pruned_by_psi", Json.Int t.pruned);
            ("left_in_queue", Json.Int t.queue_left);
          ] );
      ( "ops",
        Json.Obj
          (List.map
             (fun o ->
               (o.op, Json.Obj [ ("count", Json.Int o.op_count); ("cost", Json.Int o.op_cost) ]))
             t.ops) );
      ("pops", Json.Int t.pops);
      ("answers", Json.Int t.answers);
    ]

let of_json j =
  let open Jsonl in
  let ( let* ) = Result.bind in
  let count k o = Result.map (Option.value ~default:0) (optional int_field k o) in
  let bound k default o = Result.map (Option.value ~default) (nullable int_field k o) in
  Result.to_option
    (let* bs = list_field "buckets" j in
     let* buckets =
       map_list
         (fun b ->
           let* lo = bound "lo" min_int b in
           let* hi = bound "hi" max_int b in
           let* popped = int_field "popped" b in
           let* answers = int_field "answers" b in
           Ok { lo; hi; popped; answers })
         bs
     in
     let* discards = field "discards" j in
     let* drop_visited = count "visited_dedup" discards in
     let* drop_dup = count "duplicate_final" discards in
     let* pruned = count "pruned_by_psi" discards in
     let* queue_left = count "left_in_queue" discards in
     let* pops = count "pops" j in
     let* answers = count "answers" j in
     let ops =
       match Json.member "ops" j with
       | Some (Json.Obj fields) ->
         List.filter_map
           (fun (op, v) ->
             match (count "count" v, count "cost" v) with
             | Ok op_count, Ok op_cost -> Some { op; op_count; op_cost }
             | _ -> None)
           fields
       | _ -> []
     in
     Ok { buckets; drop_visited; drop_dup; pruned; queue_left; pops; answers; ops })
