(* Prints the physical-plan renderings of a fixed query matrix, diffed
   against fixtures/plan_golden.txt by `dune runtest` (regenerate with
   `dune promote` after an intended rendering change).

   For every cell — operator (exact/APPROX/RELAX) x strategy (plain,
   distance-aware, decomposed) x conjunct shape (constant subject, case-2
   constant object, unknown subject, unknown object, an unknown object
   beside a constant subject, two variables) x
   domains (1, 2) — it prints the query class and the audit record's plan
   string of an opened stream, then the [Engine.explain] plan as text and
   JSON.  Everything printed is a function of the plan alone, so the file
   pins plan construction, not evaluation. *)

module O = Core.Options
module Engine = Core.Engine

let graph, ontology = Datagen.L4all.generate ~timelines:21 ()

let regex = "type-.job-|next"

let triple s o = Printf.sprintf "(%s, %s, %s)" s regex o

(* (name, head, conjuncts): a two-constant conjunct cannot stand alone (the
   head needs a variable), so the unknown object constant rides in a join *)
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

let cell ~mode ~prefix ~strategy ~options ~shape ~head ~body ~domains =
  let options = { options with O.domains } in
  let body = String.concat ", " (List.map (fun c -> prefix ^ c) body) in
  let q = Core.Query_parser.parse (Printf.sprintf "%s <- %s" head body) in
  Printf.printf "== %s %s %s domains=%d ==\n" mode strategy shape domains;
  let st = Engine.open_query ~graph ~ontology ~options q in
  Printf.printf "class: %s\n" (Engine.query_class st);
  Printf.printf "plan: %s\n" (Engine.audit_record st).Obs.Audit.plan;
  Engine.close st;
  let plan = Engine.explain ~graph ~ontology ~options q in
  Format.printf "%a@." Obs.Explain.pp plan;
  print_endline (Obs.Json.to_string (Obs.Explain.to_json plan))

let () =
  List.iter
    (fun (mode, prefix) ->
      List.iter
        (fun (strategy, options) ->
          List.iter
            (fun (shape, head, body) ->
              List.iter
                (fun domains -> cell ~mode ~prefix ~strategy ~options ~shape ~head ~body ~domains)
                [ 1; 2 ])
            shapes)
        strategies)
    modes
