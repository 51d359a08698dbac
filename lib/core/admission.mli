(** Admission control: static pre-flight cost estimation of a CRP query.

    Run by [Engine.open_query] after parsing, before any evaluation state
    exists, when [Options.max_states] or [Options.max_product_est] is set.
    The estimate is read off the conjuncts' {!Plan}s — their compiled
    automata (exact state/transition counts after APPROX/RELAX expansion)
    and seeding regimes — and the graph's node count; it compiles nothing,
    and a
    rejected query never touches the graph ([edges_scanned = 0], pinned by
    the chaos suite) and surfaces as [Engine.Rejected] / CLI exit code 6.

    The formulae are documented in DESIGN.md ("Resource safety"). *)

type conjunct_estimate = {
  index : int;  (** 1-based position in the query body *)
  states : int;  (** [|Q|] of the compiled (post-expansion) automaton *)
  transitions : int;
  fanout : int;  (** max out-degree over automaton states — alternation fan-out *)
  seed_est : int;
      (** estimated [|V_seed|]: 1 for a constant seeding regime (after the
          case-2 reversal), 0 for an empty one (an unknown constant),
          [|V_G|] for a variable subject *)
  product_est : int;  (** [states * seed_est] — the lazy-product frontier bound *)
}

type estimate = {
  per_conjunct : conjunct_estimate list;
  total_states : int;  (** summed over conjuncts — the [admission_est_states] counter *)
  total_product_est : int;
  join_arity : int;
}

type kind = Max_states | Max_product_est

type rejection = {
  kind : kind;
  limit : int;
  actual : int;
  conjunct : int option;  (** the offending conjunct's [index], when per-conjunct *)
}

val estimate : graph:Graphstore.Graph.t -> Plan.t list -> estimate
(** The estimate of a query from its conjuncts' plans, in body order.
    Side-effect free: compiles nothing, never consults failpoints, never
    scans an edge. *)

val vet : graph:Graphstore.Graph.t -> options:Options.t -> Plan.t list -> estimate * rejection option
(** {!estimate}, then check it against the options' limits: any conjunct
    with [states > max_states] rejects (first offender reported), then
    [total_product_est > max_product_est].  [None] limits admit
    everything. *)

val kind_string : kind -> string
(** ["max-states"] | ["max-product-est"]. *)

val rejection_string : rejection -> string

val pp_rejection : Format.formatter -> rejection -> unit

val pp_estimate : Format.formatter -> estimate -> unit
