(* Unit and property tests for the graph store substrate: interner, oid
   bitsets and the Sparksee-like adjacency API, checked against a model
   built from the raw edge list. *)

module Interner = Graphstore.Interner
module Oid_set = Graphstore.Oid_set
module Graph = Graphstore.Graph

let check = Alcotest.check

(* --- Interner ------------------------------------------------------- *)

let test_intern_dense_ids () =
  let t = Interner.create () in
  check Alcotest.int "first" 0 (Interner.intern t "a");
  check Alcotest.int "second" 1 (Interner.intern t "b");
  check Alcotest.int "repeat" 0 (Interner.intern t "a");
  check Alcotest.int "cardinal" 2 (Interner.cardinal t)

let test_intern_name_roundtrip () =
  let t = Interner.create ~initial_capacity:1 () in
  let words = List.init 100 (fun i -> Printf.sprintf "label-%d" i) in
  let ids = List.map (Interner.intern t) words in
  List.iter2 (fun w id -> check Alcotest.string "name" w (Interner.name t id)) words ids;
  check Alcotest.(option int) "find known" (Some 42) (Interner.find t "label-42");
  check Alcotest.(option int) "find unknown" None (Interner.find t "nope")

let test_intern_bad_id () =
  let t = Interner.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Interner.name: unknown id -1") (fun () ->
      ignore (Interner.name t (-1)))

let test_intern_iter_order () =
  let t = Interner.create () in
  List.iter (fun w -> ignore (Interner.intern t w)) [ "x"; "y"; "z" ];
  let seen = ref [] in
  Interner.iter t (fun id name -> seen := (id, name) :: !seen);
  check
    Alcotest.(list (pair int string))
    "in id order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (List.rev !seen)

(* --- Oid_set -------------------------------------------------------- *)

let test_oid_set_basics () =
  let s = Oid_set.create ~capacity:4 () in
  check Alcotest.bool "empty" true (Oid_set.is_empty s);
  Oid_set.add s 3;
  Oid_set.add s 1000;
  (* beyond capacity: grows *)
  check Alcotest.bool "mem 3" true (Oid_set.mem s 3);
  check Alcotest.bool "mem 1000" true (Oid_set.mem s 1000);
  check Alcotest.bool "mem 4" false (Oid_set.mem s 4);
  check Alcotest.int "cardinal" 2 (Oid_set.cardinal s);
  check Alcotest.(list int) "sorted iteration" [ 3; 1000 ] (Oid_set.to_list s);
  Oid_set.remove s 3;
  check Alcotest.bool "removed" false (Oid_set.mem s 3);
  check Alcotest.int "cardinal after remove" 1 (Oid_set.cardinal s);
  Oid_set.clear s;
  check Alcotest.bool "cleared" true (Oid_set.is_empty s)

let test_oid_set_add_new () =
  let s = Oid_set.create () in
  check Alcotest.bool "fresh" true (Oid_set.add_new s 7);
  check Alcotest.bool "dup" false (Oid_set.add_new s 7);
  check Alcotest.int "cardinal" 1 (Oid_set.cardinal s)

let test_oid_set_union () =
  let a = Oid_set.create () and b = Oid_set.create () in
  List.iter (Oid_set.add a) [ 1; 5; 9 ];
  List.iter (Oid_set.add b) [ 5; 6 ];
  Oid_set.union_into a b;
  check Alcotest.(list int) "union" [ 1; 5; 6; 9 ] (Oid_set.to_list a)

(* Model-based property: a random sequence of add/remove agrees with a
   reference implementation over int sets. *)
let oid_set_model =
  QCheck2.Test.make ~name:"Oid_set agrees with a model set" ~count:200
    QCheck2.Gen.(list (pair bool (int_bound 500)))
    (fun ops ->
      let s = Oid_set.create ~capacity:1 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, x) ->
          if add then begin
            Oid_set.add s x;
            Hashtbl.replace model x ()
          end
          else begin
            Oid_set.remove s x;
            Hashtbl.remove model x
          end)
        ops;
      let expected = Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare in
      Oid_set.to_list s = expected && Oid_set.cardinal s = List.length expected)

(* --- Graph ---------------------------------------------------------- *)

let small_graph () =
  let g = Graph.create ~initial_nodes:2 () in
  let a = Graph.add_node g "a"
  and b = Graph.add_node g "b"
  and c = Graph.add_node g "c" in
  Graph.add_edge_s g a "p" b;
  Graph.add_edge_s g b "p" c;
  Graph.add_edge_s g a "q" c;
  Graph.add_edge_s g c "type" a;
  (g, a, b, c)

let test_graph_nodes () =
  let g, a, _, _ = small_graph () in
  check Alcotest.int "n_nodes" 3 (Graph.n_nodes g);
  check Alcotest.int "idempotent add" a (Graph.add_node g "a");
  check Alcotest.int "n_nodes unchanged" 3 (Graph.n_nodes g);
  check Alcotest.(option int) "find" (Some a) (Graph.find_node g "a");
  check Alcotest.(option int) "find missing" None (Graph.find_node g "zzz");
  check Alcotest.string "label" "a" (Graph.node_label g a)

let test_graph_neighbors () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.(list int) "out" [ b ] (Graph.neighbors g a p Graph.Out);
  check Alcotest.(list int) "in" [ a ] (Graph.neighbors g b p Graph.In);
  check Alcotest.(list int) "both" [ c; a ] (Graph.neighbors g b p Graph.Both);
  check Alcotest.(list int) "none" [] (Graph.neighbors g c p Graph.Out)

(* The targets of an index slice, in order. *)
let slice read = read () (fun () e lo hi -> List.init (hi - lo) (fun i -> Graph.target e (lo + i)))

let test_graph_neighbors_any () =
  let g, a, _, _ = small_graph () in
  (* a: out p->b, out q->c, in type<-c *)
  check Alcotest.int "three incident edges" 3 (List.length (slice (Graph.row_all g a Graph.Both)))

(* Sparksee's Tails/Heads, as seeding enumerates them: the nodes that
   [has_adjacent] accepts. *)
let test_graph_heads_tails () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  let carrying dir = List.filter (fun n -> Graph.has_adjacent g n p dir) [ a; b; c ] in
  check Alcotest.(list int) "tails p" [ a; b ] (carrying Graph.Out);
  check Alcotest.(list int) "heads p" [ b; c ] (carrying Graph.In);
  check Alcotest.(list int) "tails-and-heads p" [ a; b; c ] (carrying Graph.Both)

let test_graph_mem_edge_degrees () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.bool "mem" true (Graph.mem_edge g a p b);
  check Alcotest.bool "not mem (reverse)" false (Graph.mem_edge g b p a);
  check Alcotest.int "out degree" 1 (Graph.out_degree g a p);
  check Alcotest.int "in degree" 1 (Graph.in_degree g c p);
  check Alcotest.int "n_edges" 4 (Graph.n_edges g)

let test_graph_labels_and_type () =
  let g, _, _, _ = small_graph () in
  let names =
    List.map (Interner.name (Graph.interner g)) (Graph.labels g) |> List.sort compare
  in
  check Alcotest.(list string) "labels" [ "p"; "q"; "type" ] names;
  check Alcotest.string "type label interned" "type"
    (Interner.name (Graph.interner g) (Graph.type_label g))

(* Every logged edge once, duplicates included, also for edges added
   after the index was built. *)
let test_graph_iter_edges () =
  let g, a, b, c = small_graph () in
  let edges () =
    let acc = ref [] in
    Graph.iter_edges g (fun s l d -> acc := (s, Interner.name (Graph.interner g) l, d) :: !acc);
    List.sort compare !acc
  in
  check
    Alcotest.(list (triple int string int))
    "the edges added"
    [ (a, "p", b); (a, "q", c); (b, "p", c); (c, "type", a) ]
    (edges ());
  Graph.freeze g;
  Graph.add_edge_s g a "p" b;
  Graph.add_edge_s g b "r" a;
  check
    Alcotest.(list (triple int string int))
    "after freeze and more edges"
    [ (a, "p", b); (a, "p", b); (a, "q", c); (b, "p", c); (b, "r", a); (c, "type", a) ]
    (edges ());
  check Alcotest.int "n_edges" 6 (Graph.n_edges g)

let test_graph_stats () =
  let g, _, _, _ = small_graph () in
  let s = Graph.stats g in
  check Alcotest.int "nodes" 3 s.Graph.nodes;
  check Alcotest.int "edges" 4 s.Graph.edges;
  check Alcotest.int "labels" 3 s.Graph.distinct_labels;
  (* degrees are per label: a has one p-edge and one q-edge *)
  check Alcotest.int "max out" 1 s.Graph.max_out_degree

let test_graph_bad_oid () =
  let g, _, _, _ = small_graph () in
  Alcotest.check_raises "bad oid" (Invalid_argument "Graph.node_label: unknown oid 99") (fun () ->
      ignore (Graph.node_label g 99))

(* A label the index cannot pack is refused when the edge is added, and
   leaves the graph as it was. *)
let test_graph_label_bounds () =
  let g, a, b, _ = small_graph () in
  List.iter
    (fun label ->
      Alcotest.check_raises (Printf.sprintf "label %d" label)
        (Invalid_argument "Graph.add_edge: label or oid beyond the index's packing") (fun () ->
          Graph.add_edge g a label b))
    [ -1; 1 lsl 29; (1 lsl 29) - 1; Graphstore.Interner.cardinal (Graph.interner g) ];
  check Alcotest.int "n_edges unchanged" 4 (Graph.n_edges g);
  check Alcotest.int "labels unchanged" 3 (List.length (Graph.labels g))

(* --- frozen (CSR) graphs -------------------------------------------- *)

let test_freeze_lifecycle () =
  let g, a, b, _ = small_graph () in
  check Alcotest.int "no index before the first read" 0 (Graph.csr_bytes g);
  Graph.freeze g;
  let bytes = Graph.csr_bytes g in
  check Alcotest.bool "freeze builds the index" true (bytes > 0);
  Graph.freeze g;
  check Alcotest.int "freeze is idempotent" bytes (Graph.csr_bytes g);
  ignore (Graph.add_node g "d");
  check Alcotest.int "add_node drops the index" 0 (Graph.csr_bytes g);
  ignore (Graph.out_degree g a (Graph.type_label g));
  check Alcotest.bool "a read rebuilds it" true (Graph.csr_bytes g > bytes);
  Graph.add_edge_s g b "q" a;
  check Alcotest.int "add_edge drops the index" 0 (Graph.csr_bytes g);
  Graph.freeze g;
  check Alcotest.bool "refrozen" true (Graph.csr_bytes g > 0)

(* The adjacency reads after an explicit [freeze]. *)
let test_frozen_adjacency () =
  let g, a, b, c = small_graph () in
  Graph.freeze g;
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.(list int) "out" [ b ] (Graph.neighbors g a p Graph.Out);
  check Alcotest.(list int) "in" [ a ] (Graph.neighbors g b p Graph.In);
  check Alcotest.(list int) "both" [ c; a ] (Graph.neighbors g b p Graph.Both);
  check Alcotest.(list int) "none" [] (Graph.neighbors g c p Graph.Out);
  check Alcotest.bool "mem" true (Graph.mem_edge g a p b);
  check Alcotest.bool "not mem (reverse)" false (Graph.mem_edge g b p a);
  check Alcotest.int "out degree" 1 (Graph.out_degree g a p);
  check Alcotest.int "in degree" 1 (Graph.in_degree g c p);
  check Alcotest.bool "has_adjacent out" true (Graph.has_adjacent g a p Graph.Out);
  check Alcotest.bool "has_adjacent none" false (Graph.has_adjacent g c p Graph.Out);
  check Alcotest.bool "has_adjacent in" true (Graph.has_adjacent g c p Graph.In)

let test_frozen_label_sweeps () =
  let g, a, _, c = small_graph () in
  Graph.freeze g;
  let intern = Interner.intern (Graph.interner g) in
  (* a: out p->b, out q->c, in type<-c *)
  check Alcotest.int "any: all incident edges" 3 (List.length (slice (Graph.row_all g a Graph.Both)));
  check Alcotest.int "all labels, out only" 2 (List.length (slice (Graph.row_all g a Graph.Out)));
  check Alcotest.(list int) "label subset" [ c ]
    (List.concat_map (fun l -> slice (Graph.row g a (intern l) Graph.Out)) [ "q"; "type" ]);
  (* a label the index never saw is simply empty *)
  check Alcotest.(list int) "unused label" [] (slice (Graph.row g a (intern "ghost") Graph.Out))

let fst3 (x, _, _) = x
let snd3 (_, y, _) = y
let thd3 (_, _, z) = z

(* Property: every read agrees with a model built from the generated edge
   list, in order as well as content: rows ascending, [Both] outgoing then
   incoming, label sweeps label by label.  The slice reads are checked for
   every label kind: one label in each direction, all labels in [Out],
   [In] and [Both], a label subset slice by slice (outgoing then
   incoming for [Both]), and one-edge membership
   (the [type] edges among them).  Node 0 is a hub whose row spans every
   label in both directions.  The graph is read after [freeze], after
   adding a node, and after adding more edges (against the model over all
   edges), so an index a mutation failed to drop would show. *)
let reads_match_model =
  let edge n = QCheck2.Gen.(triple (int_bound (n - 1)) (int_bound 4) (int_bound (n - 1))) in
  QCheck2.Test.make ~name:"reads = edge-list model" ~count:100
    QCheck2.Gen.(
      pair (list_size (int_range 0 80) (edge 15)) (list_size (int_range 0 20) (edge 16)))
    (fun (edges, more) ->
      let g = Graph.create () in
      for i = 0 to 14 do
        ignore (Graph.add_node g (Printf.sprintf "v%d" i))
      done;
      let label l =
        if l = 4 then Graph.type_label g
        else Interner.intern (Graph.interner g) (Printf.sprintf "l%d" l)
      in
      let add = List.iter (fun (s, l, d) -> Graph.add_edge g s (label l) d) in
      let labels = List.sort compare (List.init 5 label) (* id order: [type] first *) in
      let hub = List.concat (List.init 5 (fun l -> [ (0, l, l + 1); (l + 2, l, 0) ])) in
      let edges = hub @ edges in
      let agrees edges =
        let edges = List.map (fun (s, l, d) -> (s, label l, d)) edges in
        let nodes = List.init (Graph.n_nodes g) Fun.id in
        let row key value n l =
          List.filter_map (fun e -> if key e = n && snd3 e = l then Some (value e) else None) edges
          |> List.sort compare
        in
        let out = row fst3 thd3 and inn = row thd3 fst3 in
        let model n l = function
          | Graph.Out -> out n l
          | Graph.In -> inn n l
          | Graph.Both -> out n l @ inn n l
        in
        let sweep n ls dir =
          match dir with
          | Graph.Both -> List.concat_map (out n) ls @ List.concat_map (inn n) ls
          | d -> List.concat_map (fun l -> model n l d) ls
        in
        let row_list n l = function
          | Graph.Both -> slice (Graph.row g n l Graph.Out) @ slice (Graph.row g n l Graph.In)
          | dir -> slice (Graph.row g n l dir)
        in
        let subset = [ List.nth labels 2; List.nth labels 0 ] in
        let max_deg side =
          List.fold_left
            (fun m n -> List.fold_left (fun m l -> max m (List.length (side n l))) m labels)
            0 nodes
        in
        let s = Graph.stats g in
        s.Graph.max_out_degree = max_deg out
        && s.Graph.max_in_degree = max_deg inn
        && List.for_all
             (fun n ->
               List.for_all
                 (fun dir ->
                   slice (Graph.row_all g n dir) = sweep n labels dir
                   && List.concat_map (fun l -> row_list n l dir) subset
                      = List.concat_map (fun l -> model n l dir) subset
                   && List.for_all
                        (fun l ->
                          Graph.neighbors g n l dir = model n l dir
                          && Graph.has_adjacent g n l dir = (model n l dir <> [])
                          && Graph.next_adjacent g n l dir
                             = (List.find_opt (fun m -> m >= n && model m l dir <> []) nodes
                               |> Option.value ~default:(Graph.n_nodes g)))
                        labels)
                 [ Graph.Out; Graph.In; Graph.Both ]
               && List.for_all
                    (fun l ->
                      row_list n l Graph.Out = out n l
                      && row_list n l Graph.In = inn n l
                      && Graph.out_degree g n l = List.length (out n l)
                      && Graph.in_degree g n l = List.length (inn n l)
                      && List.for_all
                           (fun m ->
                             Graph.mem_edge g n l m = List.mem m (out n l)
                             && slice (Graph.row_to g n l m)
                                = if List.mem m (out n l) then [ m ] else [])
                           nodes)
                    labels)
             nodes
      in
      add edges;
      Graph.freeze g;
      let frozen = agrees edges in
      ignore (Graph.add_node g "v15");
      let grown = agrees edges in
      add more;
      frozen && grown && agrees (edges @ more))

(* Property: adjacency is symmetric — m is an Out-neighbour of n under l
   iff n is an In-neighbour of m under l, for random graphs. *)
let graph_adjacency_symmetry =
  QCheck2.Test.make ~name:"out/in adjacency symmetry" ~count:50
    QCheck2.Gen.(list_size (int_range 1 60) (triple (int_bound 9) (int_bound 2) (int_bound 9)))
    (fun edges ->
      let g = Graph.create () in
      let node i = Graph.add_node g (string_of_int i) in
      List.iter (fun (s, l, d) -> Graph.add_edge_s g (node s) (Printf.sprintf "l%d" l) (node d)) edges;
      List.for_all
        (fun (s, l, d) ->
          let l = Interner.intern (Graph.interner g) (Printf.sprintf "l%d" l) in
          let s = node s and d = node d in
          List.mem d (Graph.neighbors g s l Graph.Out) && List.mem s (Graph.neighbors g d l Graph.In))
        edges)

let () =
  Alcotest.run "graphstore"
    [
      ( "interner",
        [
          Alcotest.test_case "dense ids" `Quick test_intern_dense_ids;
          Alcotest.test_case "name roundtrip" `Quick test_intern_name_roundtrip;
          Alcotest.test_case "bad id" `Quick test_intern_bad_id;
          Alcotest.test_case "iter order" `Quick test_intern_iter_order;
        ] );
      ( "oid_set",
        [
          Alcotest.test_case "basics" `Quick test_oid_set_basics;
          Alcotest.test_case "add_new" `Quick test_oid_set_add_new;
          Alcotest.test_case "union" `Quick test_oid_set_union;
          QCheck_alcotest.to_alcotest oid_set_model;
        ] );
      ( "graph",
        [
          Alcotest.test_case "nodes" `Quick test_graph_nodes;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "neighbors any" `Quick test_graph_neighbors_any;
          Alcotest.test_case "heads/tails" `Quick test_graph_heads_tails;
          Alcotest.test_case "mem_edge and degrees" `Quick test_graph_mem_edge_degrees;
          Alcotest.test_case "labels and type" `Quick test_graph_labels_and_type;
          Alcotest.test_case "iter_edges" `Quick test_graph_iter_edges;
          Alcotest.test_case "stats" `Quick test_graph_stats;
          Alcotest.test_case "bad oid" `Quick test_graph_bad_oid;
          Alcotest.test_case "label bounds" `Quick test_graph_label_bounds;
          QCheck_alcotest.to_alcotest graph_adjacency_symmetry;
        ] );
      ( "frozen graph",
        [
          Alcotest.test_case "freeze lifecycle" `Quick test_freeze_lifecycle;
          Alcotest.test_case "frozen adjacency" `Quick test_frozen_adjacency;
          Alcotest.test_case "frozen label sweeps" `Quick test_frozen_label_sweeps;
          QCheck_alcotest.to_alcotest reads_match_model;
        ] );
    ]
