(** The data-graph store.

    This is the substrate that stands in for Sparksee in the paper's
    architecture (Fig. 1).  It stores a directed edge-labelled graph
    [G = (V_G, E_G, Sigma)]:

    - every node has a unique string label (the paper stores it as an indexed
      Sparksee attribute; here it is an inverted index from label to oid);
    - every edge has a label drawn from [Sigma ∪ {type}], interned to an
      [int]; per-label adjacency is indexed in both directions, which mirrors
      Sparksee's "indexed neighbours" configuration the paper enables;
    - {!neighbors} and {!has_adjacent} correspond to the Sparksee API calls
      [Neighbors] and [Heads]/[Tails] that Omega uses (§3.1).

    Oids are dense integers allocated from 0, so client code can use arrays
    and {!Oid_set} bitmaps keyed by oid.

    Edges are stored once, in an append-only log in insertion order, and
    everything else derives from it.  Every read is served by one
    node-major compressed sparse row (CSR) index built from the log: node
    [n]'s row holds every edge at [n], outgoing before incoming, then by
    label, then by neighbour oid, so each label kind is one slice of the
    row, read in place.  The index is built on the first read after a
    mutation ({!freeze} builds it eagerly); {!add_node} and {!add_edge}
    drop it.  {!iter_edges} replays the log in the order serialisation
    uses. *)

type t

type dir = Out | In | Both
(** Traversal direction relative to a node: outgoing edges, incoming edges,
    or both. *)

val create : ?initial_nodes:int -> unit -> t

val interner : t -> Interner.t
(** The label interner shared with the ontology. *)

val type_label : t -> int
(** The interned id of the distinguished [type] label. *)

(** {1 Construction} *)

val add_node : t -> string -> int
(** [add_node g label] returns the oid of the node with the given unique
    label, creating it if needed (idempotent). *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge g src label dst] appends a directed edge to the log.
    Duplicate edges are stored as given; generators are responsible for
    dedup.
    @raise Invalid_argument on an unallocated oid, a negative label id, an
    id the graph's interner never issued (at least its
    {!Interner.cardinal}) or one of at least [1 lsl 29], or an oid of at
    least [1 lsl 32]: the graph is left unchanged. *)

val add_edge_s : t -> int -> string -> int -> unit
(** [add_edge_s g src label dst] interns [label] and adds the edge. *)

(** {1 Freezing}

    Call {!freeze} once the graph is loaded, so that the index is built
    before queries run (and never by one of their worker domains). *)

val freeze : t -> unit
(** Build the CSR index now rather than on the first read.  Idempotent; the
    index is dropped by {!add_node}/{!add_edge}. *)

val csr_bytes : t -> int
(** Heap footprint of the CSR index in bytes, 0 while it is not built. *)

(** {1 Lookup} *)

val find_node : t -> string -> int option
(** Inverted-index lookup: oid of the node labelled [label], if any. *)

val node_label : t -> int -> string
(** @raise Invalid_argument on an unallocated oid. *)

val n_nodes : t -> int
val n_edges : t -> int

val labels : t -> int list
(** All edge labels present in the graph ([Sigma ∪ {type}] if [type] edges
    exist), in interned-id order. *)

val mem_edge : t -> int -> int -> int -> bool
(** [mem_edge g src label dst] — a bisection of [src]'s row, logarithmic
    in its degree. *)

(** {1 Traversal (the Sparksee API surface)} *)

val neighbors : t -> int -> int -> dir -> int list
(** [neighbors g n label dir]: nodes connected to [n] by a [label] edge in
    the given direction.  [Both] concatenates outgoing then incoming.  Each
    direction comes out in ascending oid order; prefer {!iter_neighbors},
    which allocates nothing. *)

val iter_neighbors : t -> int -> int -> dir -> (int -> unit) -> unit
(** Allocation-free variant of {!neighbors}: one slice scan per
    direction. *)

type entries
(** The index's entries; every slice below is a range of them. *)

val entries : t -> entries

val target : entries -> int -> int
(** [target e i]: the neighbour oid of entry [i]. *)

val row : t -> int -> int -> dir -> 'a -> ('a -> entries -> int -> int -> 'b) -> 'b
(** [row g n label dir x k] is [k x e lo hi], where [target e lo ..
    target e (hi - 1)] are the {!iter_neighbors} of [n] in one direction,
    ascending: a slice of the index itself, not a copy.  Allocation-free
    when [k] is a closed function.
    @raise Invalid_argument on [Both]. *)

val row_all : t -> int -> dir -> 'a -> ('a -> entries -> int -> int -> 'b) -> 'b
(** [row_all g n dir x k]: {!row} under every label, label by label, in
    one slice; [Both] is [n]'s whole row, outgoing before incoming.  One
    direction is the APPROX [Any_dir] transition; [Both] is the APPROX
    wildcard [*] (the paper issues [Neighbors] over the generic ['edge']
    type plus [type], in both directions).  Nodes reachable via several
    labels appear once per connecting edge. *)

val row_to : t -> int -> int -> int -> 'a -> ('a -> entries -> int -> int -> 'b) -> 'b
(** [row_to g n label m x k]: the slice holding one [(n, label, m)]
    outgoing edge, or an empty one when {!mem_edge} is false. *)

val has_adjacent : t -> int -> int -> dir -> bool
(** [has_adjacent g n label dir]: whether [n] carries at least one [label]
    edge in the given direction — one search of [n]'s row per direction,
    for the first entry at or above the label's key.  Seeding uses
    this to enumerate start nodes (Sparksee [Tails]/[Heads]) without
    materialising oid sets. *)

val next_adjacent : t -> int -> int -> dir -> int
(** [next_adjacent g n label dir]: the first node from [n] on for which
    {!has_adjacent} holds, or {!n_nodes}: one scan, not a call per node. *)

val out_degree : t -> int -> int -> int
(** [out_degree g n label]. *)

val in_degree : t -> int -> int -> int

(** {1 Whole-graph iteration} *)

val iter_nodes : t -> (int -> unit) -> unit
(** Visit every oid in increasing order. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] applies [f src label dst] to every stored edge, in an
    order fixed by the graph's construction history: the log is replayed,
    in insertion order, into per-label tables (source to targets, newest
    first) that live for this call, which are then walked label by label
    with [Hashtbl.iter].  Serialisation follows this order, so it decides
    the oid numbering of a reloaded graph.  Each call builds those tables
    anew, a list cell per edge; queries never call it. *)

val iter_label_edges : t -> int -> (int -> int -> int -> unit) -> unit
(** [iter_label_edges g label f]: {!iter_edges} restricted to [label]'s
    edges, in the same order, replaying only that label's log entries
    into the one table. *)

(** {1 Statistics} *)

type stats = {
  nodes : int;
  edges : int;
  distinct_labels : int;
  max_out_degree : int;  (** largest out-degree under a single label *)
  max_in_degree : int;  (** largest in-degree under a single label *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
