(* Tests for the incremental ranked join: binding algebra, join product
   correctness against a brute-force reference, and total-distance ordering. *)

module RJ = Core.Ranked_join

let check = Alcotest.check

(* --- binding algebra -------------------------------------------------- *)

let test_binding_of () =
  check
    Alcotest.(list (pair string int))
    "sorted" [ ("a", 1); ("b", 2) ]
    (RJ.binding_of [ ("b", 2); ("a", 1) ]);
  check
    Alcotest.(list (pair string int))
    "consistent duplicate collapsed" [ ("a", 1) ]
    (RJ.binding_of [ ("a", 1); ("a", 1) ]);
  Alcotest.check_raises "inconsistent"
    (Invalid_argument "Ranked_join.binding_of: ?a bound twice") (fun () ->
      ignore (RJ.binding_of [ ("a", 1); ("a", 2) ]))

let test_compatible_merge () =
  let b1 = RJ.binding_of [ ("x", 1); ("y", 2) ] in
  let b2 = RJ.binding_of [ ("y", 2); ("z", 3) ] in
  let b3 = RJ.binding_of [ ("y", 9) ] in
  check Alcotest.bool "shared var equal" true (RJ.compatible b1 b2);
  check Alcotest.bool "shared var differs" false (RJ.compatible b1 b3);
  check Alcotest.bool "disjoint" true (RJ.compatible b2 (RJ.binding_of [ ("w", 0) ]));
  check
    Alcotest.(list (pair string int))
    "merge" [ ("x", 1); ("y", 2); ("z", 3) ]
    (RJ.merge b1 b2)

(* --- streams ----------------------------------------------------------- *)

(* Test streams carry no witnesses: these tests exercise the binding/distance
   algebra; witness passthrough is pinned by the provenance suite. *)
let stream_of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | (bind, d) :: tl ->
      rest := tl;
      Some (bind, d, [])

let drain join =
  let rec go acc =
    match RJ.next join with None -> List.rev acc | Some (bind, d, _) -> go ((bind, d) :: acc)
  in
  go []

let b pairs = RJ.binding_of pairs

let test_two_way_join () =
  let left = [ (b [ ("x", 1) ], 0); (b [ ("x", 2) ], 1) ] in
  let right = [ (b [ ("x", 2); ("y", 5) ], 0); (b [ ("x", 1); ("y", 6) ], 2) ] in
  let results = drain (RJ.create [ stream_of_list left; stream_of_list right ]) in
  check Alcotest.int "two results" 2 (List.length results);
  let totals = List.map snd results in
  check Alcotest.(list int) "ordered totals" [ 1; 2 ] totals

let test_empty_stream_kills_join () =
  let left = [ (b [ ("x", 1) ], 0) ] in
  let results = drain (RJ.create [ stream_of_list left; stream_of_list [] ]) in
  check Alcotest.int "no results" 0 (List.length results)

let test_cross_product_when_disjoint () =
  let left = [ (b [ ("x", 1) ], 0); (b [ ("x", 2) ], 3) ] in
  let right = [ (b [ ("y", 1) ], 1); (b [ ("y", 2) ], 2) ] in
  let results = drain (RJ.create [ stream_of_list left; stream_of_list right ]) in
  check Alcotest.int "2x2" 4 (List.length results);
  check Alcotest.(list int) "totals sorted" [ 1; 2; 4; 5 ] (List.map snd results)

let test_three_way_join () =
  let s1 = [ (b [ ("x", 1) ], 0) ] in
  let s2 = [ (b [ ("x", 1); ("y", 2) ], 1); (b [ ("x", 1); ("y", 3) ], 2) ] in
  let s3 = [ (b [ ("y", 3); ("z", 9) ], 0); (b [ ("y", 2); ("z", 8) ], 4) ] in
  let results = drain (RJ.create [ stream_of_list s1; stream_of_list s2; stream_of_list s3 ]) in
  check Alcotest.int "two chains" 2 (List.length results);
  check Alcotest.(list int) "totals" [ 2; 5 ] (List.map snd results)

let test_duplicate_combination_emitted_once () =
  (* two left answers merge into the same binding; keep the cheapest *)
  let left = [ (b [ ("x", 1) ], 0); (b [ ("x", 1) ], 2) ] in
  let right = [ (b [ ("x", 1); ("y", 5) ], 0) ] in
  let results = drain (RJ.create [ stream_of_list left; stream_of_list right ]) in
  check Alcotest.int "once" 1 (List.length results);
  check Alcotest.int "at the cheapest total" 0 (snd (List.hd results))

(* Reference: brute-force n-way join, sorted by total. *)
let brute_force streams =
  let rec product = function
    | [] -> [ (RJ.binding_of [], 0) ]
    | s :: rest ->
      let tails = product rest in
      List.concat_map
        (fun (bind, dist) ->
          List.filter_map
            (fun (tb, td) ->
              if RJ.compatible bind tb then Some (RJ.merge bind tb, dist + td) else None)
            tails)
        s
  in
  (* keep the cheapest total per binding, like the incremental join *)
  let best = Hashtbl.create 16 in
  List.iter
    (fun (bind, total) ->
      match Hashtbl.find_opt best bind with
      | Some t when t <= total -> ()
      | _ -> Hashtbl.replace best bind total)
    (product streams);
  Hashtbl.fold (fun bind total acc -> (bind, total) :: acc) best []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let gen_stream =
  QCheck2.Gen.(
    map
      (fun l ->
        (* sort by distance: streams must be non-decreasing *)
        List.sort (fun (_, a) (_, b) -> compare a b)
          (List.map (fun (x, y, d) -> (RJ.binding_of [ ("x", x); ("y", y) ], d)) l))
      (list_size (int_bound 12) (triple (int_bound 3) (int_bound 3) (int_bound 6))))

let join_matches_brute_force =
  QCheck2.Test.make ~name:"incremental join = brute force (sets and totals)" ~count:200
    QCheck2.Gen.(pair gen_stream gen_stream)
    (fun (s1, s2) ->
      let incremental = drain (RJ.create [ stream_of_list s1; stream_of_list s2 ]) in
      let reference = brute_force [ s1; s2 ] in
      let norm l = List.sort compare l in
      norm incremental = norm reference
      && (* and the emission order is non-decreasing in total *)
      fst
        (List.fold_left
           (fun (ok, last) (_, t) -> (ok && t >= last, t))
           (true, 0) incremental))

(* --- the keyed probe against the nested loop ------------------------------ *)

(* The join as it was before each input indexed its pulled answers by
   (var, value): every fresh answer is compared with every answer already
   pulled from the other inputs.  Kept as the reference the keyed probe
   must reproduce exactly — same bindings, totals and witness lists, in the
   same order. *)
module Nested_loop = struct
  type answer = RJ.binding * int * Core.Witness.t list

  type input = {
    pull : unit -> answer option;
    mutable seen : answer list;
    mutable top : int option;
    mutable last : int;
    mutable exhausted : bool;
  }

  type t = {
    inputs : input array;
    buffer : answer Core.Dr_queue.t;
    emitted : (RJ.binding, unit) Hashtbl.t;
  }

  let create streams =
    {
      inputs =
        Array.of_list
          (List.map (fun pull -> { pull; seen = []; top = None; last = 0; exhausted = false }) streams);
      buffer = Core.Dr_queue.create ();
      emitted = Hashtbl.create 64;
    }

  let threshold t =
    let bound = ref max_int in
    Array.iteri
      (fun i input ->
        if not input.exhausted then begin
          let others_ok = ref true and others_sum = ref 0 in
          Array.iteri
            (fun j other ->
              if i <> j then
                match other.top with Some d -> others_sum := !others_sum + d | None -> others_ok := false)
            t.inputs;
          if !others_ok && input.last + !others_sum < !bound then bound := input.last + !others_sum
        end)
      t.inputs;
    !bound

  let combinations t idx fresh fresh_dist fresh_wits =
    let n = Array.length t.inputs in
    let rec extend j acc_binding acc_dist acc_wits combos =
      if j = n then (acc_binding, acc_dist, acc_wits) :: combos
      else if j = idx then extend (j + 1) acc_binding acc_dist acc_wits combos
      else
        List.fold_left
          (fun combos (b, d, ws) ->
            if RJ.compatible acc_binding b then
              extend (j + 1) (RJ.merge acc_binding b) (acc_dist + d) (acc_wits @ ws) combos
            else combos)
          combos t.inputs.(j).seen
    in
    extend 0 fresh fresh_dist fresh_wits []

  let pull_one t idx =
    let input = t.inputs.(idx) in
    match input.pull () with
    | None -> input.exhausted <- true
    | Some (b, d, ws) ->
      input.seen <- (b, d, ws) :: input.seen;
      input.last <- max input.last d;
      (match input.top with Some top when top <= d -> () | _ -> input.top <- Some d);
      List.iter
        (fun ((_, total, _) as c) -> Core.Dr_queue.push t.buffer ~dist:total ~final:false c)
        (combinations t idx b d ws)

  let next_source t =
    let best = ref (-1) in
    Array.iteri
      (fun i input ->
        if not input.exhausted then
          match !best with
          | -1 -> best := i
          | b ->
            let weight j = if t.inputs.(j).top = None then min_int else t.inputs.(j).last in
            if weight i < weight b then best := i)
      t.inputs;
    !best

  let rec next t =
    match Core.Dr_queue.min_distance t.buffer with
    | Some d when d <= threshold t -> (
      match Core.Dr_queue.pop t.buffer with
      | Some (((binding, _, _) as c), _, _) ->
        if Hashtbl.mem t.emitted binding then next t
        else begin
          Hashtbl.add t.emitted binding ();
          Some c
        end
      | None -> None)
    | _ -> (
      match next_source t with
      | -1 -> None
      | idx ->
        pull_one t idx;
        next t)
end

(* A conjunct's answer stream: [vars] are its variable positions (a
   repeated name is a conjunct like (?X, R, ?X), binding one variable; no
   name at all is a constant-only conjunct), values in a small domain so
   that joins match, distances non-decreasing, and a witness per answer
   that names it, so the comparison sees which answers each combination
   concatenated. *)
let gen_conjunct ~tag vars =
  QCheck2.Gen.(
    map
      (fun l ->
        List.sort (fun (_, a) (_, b) -> compare a b) l
        |> List.mapi (fun i (vals, d) ->
               (* a repeated variable binds one value: the answers of
                  (?X, R, ?X) have x = y *)
               let vals = List.filteri (fun k _ -> k < List.length vars) vals in
               let pairs = List.map2 (fun v x -> (v, x)) vars vals in
               let bind = RJ.binding_of (List.map (fun (v, _) -> (v, List.assoc v pairs)) pairs) in
               let w = { Core.Witness.source = tag; target = i; dist = d; hops = [] } in
               (bind, d, [ w ])))
      (list_size (int_bound 14) (pair (list_repeat 2 (int_bound 3)) (int_bound 5))))

(* The variable positions of 2- and 3-conjunct queries: shared and
   disjoint variables, both variables shared, a repeated variable, and a
   constant-only conjunct. *)
let shapes =
  [
    [ [ "x"; "y" ]; [ "y"; "z" ] ];
    [ [ "x"; "y" ]; [ "x"; "y" ] ];
    [ [ "x"; "y" ]; [ "y"; "x" ] ];
    [ [ "x" ]; [ "z" ] ];
    [ [ "x"; "x" ]; [ "x"; "y" ] ];
    [ [ "x"; "y" ]; [] ];
    [ [ "x"; "y" ]; [ "y"; "z" ]; [ "z"; "w" ] ];
    [ [ "x"; "y" ]; [ "y"; "z" ]; [ "x"; "z" ] ];
    [ [ "x"; "y" ]; [ "w" ]; [ "y"; "y" ] ];
    [ [ "x" ]; [ "x"; "y" ]; [ "x"; "y" ] ];
  ]

let gen_query =
  QCheck2.Gen.(
    oneofl shapes >>= fun shape ->
    let rec conjuncts i = function
      | [] -> return []
      | vars :: rest ->
        gen_conjunct ~tag:i vars >>= fun c -> map (fun cs -> c :: cs) (conjuncts (i + 1) rest)
    in
    conjuncts 0 shape)

let keyed_matches_nested_loop =
  QCheck2.Test.make ~name:"keyed probe = nested loop (bindings, totals, witnesses)" ~count:300
    gen_query (fun conjuncts ->
      let pulls () =
        List.map
          (fun l ->
            let rest = ref l in
            fun () ->
              match !rest with
              | [] -> None
              | a :: tl ->
                rest := tl;
                Some a)
          conjuncts
      in
      let rec drain next acc = match next () with None -> List.rev acc | Some a -> drain next (a :: acc) in
      let keyed = RJ.create (pulls ()) in
      let reference = Nested_loop.create (pulls ()) in
      drain (fun () -> RJ.next keyed) [] = drain (fun () -> Nested_loop.next reference) [])

let () =
  Alcotest.run "ranked_join"
    [
      ( "bindings",
        [
          Alcotest.test_case "binding_of" `Quick test_binding_of;
          Alcotest.test_case "compatible/merge" `Quick test_compatible_merge;
        ] );
      ( "join",
        [
          Alcotest.test_case "two-way" `Quick test_two_way_join;
          Alcotest.test_case "empty input" `Quick test_empty_stream_kills_join;
          Alcotest.test_case "cross product" `Quick test_cross_product_when_disjoint;
          Alcotest.test_case "three-way" `Quick test_three_way_join;
          Alcotest.test_case "duplicate combination" `Quick test_duplicate_combination_emitted_once;
          QCheck_alcotest.to_alcotest join_matches_brute_force;
          QCheck_alcotest.to_alcotest keyed_matches_nested_loop;
        ] );
    ]
