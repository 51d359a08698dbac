(* Prints the ranked answer streams of a fixed query matrix, diffed against
   fixtures/stream_golden.txt by `dune runtest` (regenerate with
   `dune promote` after an intended change to evaluation order).

   The matrix is the plan golden's query set (exact/APPROX/RELAX x six
   conjunct shapes over "type-.job-|next") plus the OPT1/OPT2 queries
   (L4All Q3, Q8, Q9, Q12 APPROX on the same small L4All graph; YAGO Q2,
   Q3, Q9 APPROX on a small YAGO-sim graph), each run plain,
   distance-aware and decomposed with provenance on, at one domain.  For
   every cell it prints the first [limit] answers — bindings, distance and
   each conjunct witness's path and edit script — the termination, and the
   [pushes], [succ_calls] and [answers] counters.  The file pins the
   evaluation order and the logical work of GetNext/Succ, not the physical
   layout of D_R. *)

module O = Core.Options
module Engine = Core.Engine

let limit = 100

let l4all = Datagen.L4all.generate ~timelines:21 ()

let yago = Datagen.Yago_sim.generate ~params:{ Datagen.Yago_sim.scale = 0.002; seed = 2015 } ()

let regex = "type-.job-|next"

let triple s o = Printf.sprintf "(%s, %s, %s)" s regex o

let shapes =
  [
    ("constant", "(?Y)", [ triple "Librarians" "?Y" ]);
    ("reversed", "(?X)", [ triple "?X" "Librarians" ]);
    ("unknown-subject", "(?Y)", [ triple "NoSuchNode" "?Y" ]);
    ("unknown-object", "(?X)", [ triple "?X" "NoSuchNode" ]);
    ("unknown-object-constant", "(?Y)", [ triple "Librarians" "NoSuchNode"; triple "Librarians" "?Y" ]);
    ("variables", "(?X, ?Y)", [ triple "?X" "?Y" ]);
  ]

let modes = [ ("exact", ""); ("approx", "APPROX "); ("relax", "RELAX ") ]

let strategies =
  [
    ("plain", O.default);
    ("distance-aware", { O.default with O.distance_aware = true });
    ("decompose", { O.default with O.decompose = true });
  ]

(* (name, graph, query text) *)
let queries =
  List.concat_map
    (fun (mode, prefix) ->
      List.map
        (fun (shape, head, body) ->
          let body = String.concat ", " (List.map (fun c -> prefix ^ c) body) in
          (Printf.sprintf "%s %s" mode shape, l4all, Printf.sprintf "%s <- %s" head body))
        shapes)
    modes
  @ List.map
      (fun id ->
        (Printf.sprintf "l4all Q%d approx" id, l4all, Datagen.L4all.query_text id Core.Query.Approx))
      [ 3; 8; 9; 12 ]
  @ List.map
      (fun id ->
        (Printf.sprintf "yago Q%d approx" id, yago, Datagen.Yago_sim.query_text id Core.Query.Approx))
      [ 2; 3; 9 ]

let cell ~strategy ~options (name, (graph, ontology), text) =
  let options = { options with O.provenance = true } in
  Printf.printf "== %s %s ==\n%s\n" name strategy text;
  let node oid = Graphstore.Graph.node_label graph oid in
  let label id = Graphstore.Interner.name (Graphstore.Graph.interner graph) id in
  let st = Engine.open_query ~graph ~ontology ~options (Core.Query_parser.parse text) in
  let rec pull k =
    if k < limit then
      match Engine.next st with
      | None -> ()
      | Some (a : Engine.answer) ->
        Printf.printf "%d %s\n" a.distance
          (String.concat " " (List.map (fun (v, l) -> Printf.sprintf "%s=%s" v l) a.bindings));
        List.iter
          (fun w ->
            Format.printf "  %a | %a@." (Core.Witness.pp_path ~node ~label) w Core.Witness.pp_script w)
          a.witnesses;
        pull (k + 1)
  in
  pull 0;
  let s = Engine.stream_stats st in
  Printf.printf "termination: %s\n"
    (match Engine.status st with
    | Engine.Completed -> "completed"
    | Engine.Exhausted { reason; tuples; _ } ->
      Printf.sprintf "%s after %d tuple(s)" (Core.Governor.reason_string reason) tuples
    | Engine.Rejected _ -> "rejected");
  Printf.printf "pushes=%d succ_calls=%d answers=%d\n" s.pushes s.succ_calls s.answers;
  Engine.close st

let () =
  List.iter
    (fun q -> List.iter (fun (strategy, options) -> cell ~strategy ~options q) strategies)
    queries
