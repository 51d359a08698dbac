module Graph = Graphstore.Graph

type mode =
  | Exact
  | Approx of { ins : int; del : int; sub : int }
  | Relax of { beta : int; gamma : int }

let pp_mode ppf = function
  | Exact -> Format.pp_print_string ppf "exact"
  | Approx { ins; del; sub } -> Format.fprintf ppf "APPROX(ins=%d,del=%d,sub=%d)" ins del sub
  | Relax { beta; gamma } -> Format.fprintf ppf "RELAX(beta=%d,gamma=%d)" beta gamma

let conjunct_automaton ~graph ~ontology ~mode r =
  let intern = Graphstore.Interner.intern (Graph.interner graph) in
  let span name f = Obs.Flight.with_span ~cat:"build" name f in
  let m = span "build.thompson" (fun () -> Build.of_regex ~intern r) in
  let transformed =
    match mode with
    | Exact -> m
    | Approx { ins; del; sub } -> span "build.approx" (fun () -> Approx.transform ~ins ~del ~sub m)
    | Relax { beta; gamma } ->
      let class_node c = Graph.find_node graph (Graphstore.Interner.name (Graph.interner graph) c) in
      span "build.relax" (fun () -> Relax.transform ~beta ~gamma ~ontology ~class_node m)
  in
  span "build.eps_removal" (fun () -> Eps.remove transformed)
