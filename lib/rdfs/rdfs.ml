module Graph = Graphstore.Graph
module Interner = Graphstore.Interner

type stats = { type_edges_added : int; property_edges_added : int }

let pp_stats ppf s =
  Format.fprintf ppf "type+=%d property+=%d" s.type_edges_added s.property_edges_added

(* The rule set is not recursive once closures are used: sub-class and
   sub-property reasoning is applied through the ontology's transitive
   closures, and dom/range conclusions only produce [type] edges, which no
   rule consumes except rdfs9 — so we run dom/range and sub-property first,
   then close the [type] edges.  One pass over the edge list per family,
   with a seen-set to keep the graph duplicate-free. *)
let saturate ?(subclass = true) ?(subproperty = true) ?(domain_range = true) g k =
  let interner = Graph.interner g in
  let type_l = Graph.type_label g in
  let seen = Hashtbl.create 1024 in
  (* the original edges, snapshot in the same walk: rules apply to the
     asserted graph, the closures supply the rest *)
  let original = ref [] in
  Graph.iter_edges g (fun s l d ->
      let e = (s, l, d) in
      Hashtbl.replace seen e ();
      original := e :: !original);
  let type_added = ref 0 and prop_added = ref 0 in
  let add counter src l dst =
    if not (Hashtbl.mem seen (src, l, dst)) then begin
      Hashtbl.add seen (src, l, dst) ();
      Graph.add_edge g src l dst;
      incr counter
    end
  in
  let class_node c = Graph.add_node g (Interner.name interner c) in
  if subproperty || domain_range then
    List.iter
      (fun (src, l, dst) ->
        if l <> type_l && Ontology.is_property k l then begin
          if subproperty then
            List.iter
              (fun (super, depth) -> if depth > 0 then add prop_added src super dst)
              (Ontology.property_ancestors k l);
          if domain_range then begin
            (match Ontology.domain k l with
            | Some c -> add type_added src type_l (class_node c)
            | None -> ());
            match Ontology.range k l with
            | Some c -> add type_added dst type_l (class_node c)
            | None -> ()
          end
        end)
      !original;
  if subclass then begin
    (* include the type edges added by dom/range above *)
    let type_edges = ref [] in
    Graph.iter_label_edges g type_l (fun s _ d -> type_edges := (s, d) :: !type_edges);
    List.iter
      (fun (x, c) ->
        let c_label = Interner.intern interner (Graph.node_label g c) in
        if Ontology.is_class k c_label then
          List.iter
            (fun (super, depth) -> if depth > 0 then add type_added x type_l (class_node super))
            (Ontology.ancestors_by_specificity k c_label))
      !type_edges
  end;
  { type_edges_added = !type_added; property_edges_added = !prop_added }
