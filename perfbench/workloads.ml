(* The benchmark's query mixes and the seeded operation sequences drawn
   from them.

   A stratum is one query shape under one operator.  Its constants come
   from a fixed catalogue of nodes of the same kind as the paper's constant
   (the paper's own constant always included), so the goldens can cover
   every query any seed can draw.  Every stratum of a workload draws the
   same number of constants per pass: the paper times each of its queries
   on its own, with equal weight, and no observed workload gives other
   weights.  Draws are [Uniform] (dealt from a seeded shuffle of the
   catalogue) or [Zipf] over the catalogue order (server requests, which
   repeat). *)

module Rng = Datagen.Rng

type draw = Uniform of int | Zipf of int

type stratum = {
  name : string;
  constants : string array;
  instantiate : string -> string;
  draw : draw;
}

type op = { stratum : string; text : string }

let zipf_alpha = 1.0

(* How often each rank comes up in [m] Zipf draws over [n] ranks: [m]
   times each rank's weight, rounded by largest remainder (ties to the
   lower rank) so the counts add up to [m]. *)
let zipf_counts ~n ~m =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_alpha)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> float_of_int m *. x /. total) w in
  let counts = Array.map (fun x -> truncate x) exact in
  let rest x = x -. Float.of_int (truncate x) in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Float.compare (rest exact.(b)) (rest exact.(a))) order;
  for k = 0 to m - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(k)) <- counts.(order.(k)) + 1
  done;
  counts

(* A stratum's draw state, kept across passes: a deck of catalogue
   indices, dealt from a seeded shuffle and reshuffled when it runs out.
   A [Uniform] deck holds the catalogue once, so over a run every constant
   is drawn about equally often; a [Zipf] deck holds a whole run's draws in
   their Zipf counts, so every run draws each constant equally often and
   the seed decides the order. *)
type source = { s : stratum; deck : int array; mutable dealt : int }

let source ~passes s =
  let n = Array.length s.constants in
  let deck =
    match s.draw with
    | Uniform _ -> Array.init n Fun.id
    | Zipf k ->
      let counts = zipf_counts ~n ~m:(k * passes) in
      Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c r) counts))
  in
  { s; deck; dealt = Array.length deck }

let deal rng src =
  if src.dealt = Array.length src.deck then begin
    Rng.shuffle rng src.deck;
    src.dealt <- 0
  end;
  src.dealt <- src.dealt + 1;
  src.deck.(src.dealt - 1)

let ops_of_source rng src =
  let op i = { stratum = src.s.name; text = src.s.instantiate src.s.constants.(i) } in
  match src.s.draw with Uniform k | Zipf k -> List.init k (fun _ -> op (deal rng src))

(* The run's [passes] passes, each drawn afresh and shuffled, all from
   [seed] alone: the k-th call returns the k-th pass. *)
let passes ~seed ~passes strata =
  let rng = Rng.create seed in
  let sources = List.map (source ~passes) strata in
  fun () ->
    let ops = Array.of_list (List.concat_map (ops_of_source rng) sources) in
    Rng.shuffle rng ops;
    ops

(* The first operation of each stratum, in sequence order: the warm-up. *)
let first_per_stratum ops =
  let seen = Hashtbl.create 64 in
  Array.to_list ops
  |> List.filter (fun op ->
         if Hashtbl.mem seen op.stratum then false
         else begin
           Hashtbl.add seen op.stratum ();
           true
         end)

(* ---- catalogues --------------------------------------------------- *)

let classes ?(leaves_only = false) graph ontology root =
  let inter = Graphstore.Graph.interner graph in
  match Graphstore.Interner.find inter root with
  | None -> [||]
  | Some id ->
    Ontology.class_descendants ontology id
    |> List.filter (fun c -> (not leaves_only) || Ontology.sub_classes ontology c = [])
    |> List.map (Graphstore.Interner.name inter)
    |> List.sort compare |> Array.of_list

let direct_subclasses graph ontology root =
  let inter = Graphstore.Graph.interner graph in
  match Graphstore.Interner.find inter root with
  | None -> [||]
  | Some id ->
    Ontology.sub_classes ontology id
    |> List.map (Graphstore.Interner.name inter)
    |> List.sort compare |> Array.of_list

(* [paper] first, then up to [n - 1] of [candidates] at even steps through
   their sorted order. *)
let spread n ~paper candidates =
  let rest = List.filter (fun c -> c <> paper) (Array.to_list candidates) |> Array.of_list in
  let m = Array.length rest in
  let k = min (n - 1) m in
  Array.append [| paper |] (Array.init k (fun i -> rest.(i * m / max 1 k)))

(* Nodes named [prefix ^ i] for i = 0, 1, … (generator order, which for
   the YAGO-shaped graph is popularity order: rank 0 is the largest hub). *)
let numbered graph ~paper prefix n =
  let rec go i acc =
    if List.length acc >= n - 1 then List.rev acc
    else
      let label = Printf.sprintf "%s%d" prefix i in
      match Graphstore.Graph.find_node graph label with
      | Some _ -> go (i + 1) (label :: acc)
      | None -> List.rev acc
  in
  Array.of_list (paper :: go 0 [])

let mode_prefix = function "exact" -> "" | "approx" -> "APPROX " | "relax" -> "RELAX " | m -> m

let single ~head ~regex ~mode c =
  Printf.sprintf "%s <- %s(%s, %s, ?X)" head (mode_prefix mode) c regex

(* ---- flex-topk: the paper's constant-anchored Fig. 4 shapes, L3 ---- *)

(* Per pass: [flex_draws] draws of every stratum.  Catalogues hold up to
   [flex_catalogue] constants, so a run of two passes deals each catalogue
   out whole and every seed runs the same queries in another order. *)
let flex_draws = 8
let flex_catalogue = 16

let flex_topk graph ontology =
  let leaves root = classes ~leaves_only:true graph ontology root in
  let occupations = leaves "Occupation" in
  let spread = spread flex_catalogue in
  (* first episodes of the timelines that duplicate the paper's timeline 4;
     APPROX Q9 costs over a second per instance, so it keeps two *)
  let first_episodes n = Array.init n (fun m -> Printf.sprintf "Alumni %d Episode 1_1" (4 + (21 * m))) in
  let stratum id mode regex constants =
    {
      name = Printf.sprintf "Q%d-%s" id mode;
      constants;
      instantiate = single ~head:"(?X)" ~regex ~mode;
      draw = Uniform flex_draws;
    }
  in
  let both id regex constants = List.map (fun mode -> stratum id mode regex constants) [ "approx"; "relax" ] in
  both 1 "type-" (classes graph ontology "Episode")
  @ both 2 "type-.qualif-" (spread ~paper:"Information Systems" (leaves "Subject"))
  @ both 3 "type-.job-" (spread ~paper:"Software Professionals" occupations)
  @ both 8 "type.prereq+" (direct_subclasses graph ontology "Subject")
  @ [
      stratum 9 "approx" "prereq*.next+.prereq" (first_episodes 2);
      stratum 9 "relax" "prereq*.next+.prereq" (first_episodes flex_catalogue);
    ]
  @ both 10 "type-" (spread ~paper:"Librarians" occupations)
  @ both 11 "type-.job-.next" (spread ~paper:"Librarians" occupations)
  @ both 12 "level-.qualif-.prereq" (spread ~paper:"BTEC Introductory Diploma" (leaves "Education Qualification Level"))

(* ---- join-par: parallel (?X, R, ?Y) conjuncts and joins, L2 --------- *)

(* One draw of every stratum per pass; a join's three anchors are dealt out
   whole every three passes. *)
let join_par graph ontology =
  let leaves root = classes ~leaves_only:true graph ontology root in
  let var_var id mode regex =
    {
      name = Printf.sprintf "Q%d-%s" id mode;
      constants = [| "" |];
      instantiate = (fun _ -> Printf.sprintf "(?X, ?Y) <- %s(?X, %s, ?Y)" (mode_prefix mode) regex);
      draw = Uniform 1;
    }
  in
  (* a constant-anchored conjunct joined on ?X to a parallel (?X, R, ?Y)
     conjunct; the operator goes on the anchored side (APPROX) or on the
     parallel side (RELAX) *)
  let join name ~anchor ~regex constants =
    List.map
      (fun mode ->
        let instantiate c =
          match mode with
          | "approx" -> Printf.sprintf "(?X, ?Y) <- APPROX (%s, %s, ?X), (?X, %s, ?Y)" c anchor regex
          | "relax" -> Printf.sprintf "(?X, ?Y) <- (%s, %s, ?X), RELAX (?X, %s, ?Y)" c anchor regex
          | _ -> Printf.sprintf "(?X, ?Y) <- (%s, %s, ?X), (?X, %s, ?Y)" c anchor regex
        in
        { name = Printf.sprintf "J-%s-%s" name mode; constants; instantiate; draw = Uniform 1 })
      [ "exact"; "approx"; "relax" ]
  in
  [
    var_var 4 "exact" "job.type";
    var_var 4 "relax" "job.type";
    var_var 5 "exact" "next+";
    var_var 5 "approx" "next+";
    var_var 5 "relax" "next+";
    var_var 6 "exact" "prereq+";
    var_var 6 "approx" "prereq+";
    var_var 6 "relax" "prereq+";
    var_var 7 "exact" "next+|(prereq+.next)";
    var_var 7 "relax" "next+|(prereq+.next)";
  ]
  @ join "job" ~anchor:"type-.job-" ~regex:"next+" (spread 3 ~paper:"Web Designers" (leaves "Occupation"))
  @ join "qualif" ~anchor:"type-.qualif-" ~regex:"prereq+" (spread 3 ~paper:"Computer Science" (leaves "Subject"))
  @ join "episode" ~anchor:"type-" ~regex:"next" (spread 3 ~paper:"Training Episode" (leaves "Episode"))

(* ---- serve-mix: the Fig. 9 shapes through the query server, YAGO ---- *)

(* Per pass: [serve_draws] requests of every stratum, constants drawn by
   Zipf over the catalogue's popularity order.  Catalogues hold the paper's
   constant and the top-ranked nodes of its kind (hubs, in the generator's
   Zipf order), where a 10-answer request costs well under a millisecond to
   a few.  APPROX Y2 and APPROX Y9 keep only the paper's constant: with
   other people APPROX Y2 is a 1-2 s query, and APPROX Y9 on the paper's
   UK (about 70 ms) is the heavy class the workload is meant to hold. *)
let serve_catalogue = 32
let serve_draws = 10

let serve_mix graph ontology =
  let stratum id mode regex constants =
    let instantiate = single ~head:"(?X)" ~regex ~mode in
    { name = Printf.sprintf "Y%d-%s" id mode; constants; instantiate; draw = Zipf serve_draws }
  in
  let anchored ?(approx_constants = fun c -> c) id regex constants =
    [
      stratum id "exact" regex constants;
      stratum id "relax" regex constants;
      stratum id "approx" regex (approx_constants constants);
    ]
  in
  let paper_only c = [| c.(0) |] in
  let var_var id mode regex =
    {
      name = Printf.sprintf "Y%d-%s" id mode;
      constants = [| "" |];
      instantiate = (fun _ -> Printf.sprintf "(?X, ?Y) <- %s(?X, %s, ?Y)" (mode_prefix mode) regex);
      draw = Uniform serve_draws;
    }
  in
  let numbered ~paper prefix = numbered graph ~paper prefix serve_catalogue in
  let classes ~paper root = spread serve_catalogue ~paper (classes graph ontology root) in
  anchored 1 "bornIn-.marriedTo.hasChild" (numbered ~paper:"Halle_Saxony-Anhalt" "City_")
  @ anchored 2 "hasChild.gradFrom.gradFrom-.hasWonPrize" (numbered ~paper:"Li_Peng" "Person_")
      ~approx_constants:paper_only
  @ anchored 3 "type-.locatedIn-" (classes ~paper:"wordnet_ziggurat" "wordnet_artifact")
  @ [
      var_var 4 "exact" "directed.married.married+.playsFor";
      var_var 4 "relax" "directed.married.married+.playsFor";
      var_var 5 "exact" "isConnectedTo.wasBornIn";
      var_var 5 "relax" "isConnectedTo.wasBornIn";
      var_var 6 "exact" "imports.exports-";
      var_var 6 "relax" "imports.exports-";
    ]
  @ anchored 7 "type-.happenedIn-.participatedIn-" (classes ~paper:"wordnet_city" "wordnet_location")
  @ anchored 8 "type.type-.actedIn" (numbered ~paper:"Annie Haslam" "Person_")
  @ anchored 9 "(livesIn-.hasCurrency)|(locatedIn-.gradFrom)" (numbered ~paper:"UK" "Country_")
      ~approx_constants:paper_only
