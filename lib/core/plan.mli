(** The physical plan of one conjunct — the paper's [Open] (§3.3) decided
    once, before evaluation.

    [Engine.open_query] (and [Engine.explain]) build one plan per conjunct
    on the calling domain.  A plan fixes everything [Open] decides: the
    case-2 reversal, the seeding regime, the object target, the compiled
    automaton of every part, the §4.3 strategy and the emission order.  The
    consumers — {!Admission}, {!Evaluator}, {!Conjunct}, EXPLAIN and the
    audit record — read the plan and never work the decision out again.

    A plan is immutable.  Its automata are compiled here, once: ψ restarts
    all evaluate the same read-only [Nfa.t]. *)

type seeding =
  | Empty of { name : string; on_object : bool }
      (** an unknown constant (the object, if [on_object]): no answers *)
  | Constant of { name : string; oid : int }  (** [(C, R, ?Y)]: the node [C] *)
  | Ancestors of { name : string; oid : int }
      (** RELAX [(C, R, ?Y)]: [C] and the nodes of its super-classes
          ([GetAncestors]), resolved at open time *)
  | Variable of { batch_size : int }
      (** [(?X, R, ?Y)]: the {!Seeder} coroutine; [max_int] is up-front *)

type strategy =
  | Plain
  | Distance_aware  (** ψ-levelled, one part *)
  | Decomposed  (** ψ-levelled, one part per top-level alternative *)

type part = {
  source : Rpq_regex.Regex.t;  (** the part's regex as written (before reversal) *)
  nfa : Automaton.Nfa.t;  (** compiled from the evaluated orientation *)
}

type t = {
  conjunct : Query.conjunct;  (** as written *)
  reversed : bool;  (** case 2: [(?X, R, C)] evaluated as [(C, R-, ?X)] *)
  automaton : Automaton.Nfa.t;  (** the whole conjunct's automaton *)
  seeding : seeding;
  target : int option;  (** the object constant's oid ([-1]: unknown) *)
  same_var : bool;  (** subject and object are the same variable *)
  phi : int;  (** the ψ increment ({!Options.phi}) *)
  strategy : strategy;
  parts : part list;
      (** one per alternative under [Decomposed], else the whole conjunct *)
  canonical : bool;
      (** the stream comes in ascending [(distance, x, y)] order: set for a
          [(?X, R, ?Y)] conjunct with the [Plain] strategy when
          [options.domains >= 2] *)
}

val make :
  graph:Graphstore.Graph.t -> ontology:Ontology.t -> options:Options.t -> Query.conjunct -> t
(** Decide and compile.  Interns the regex's labels into [graph]'s interner
    — call it on one domain at a time.  Scans no edge and consults no
    failpoint. *)

val of_query :
  graph:Graphstore.Graph.t -> ontology:Ontology.t -> options:Options.t -> Query.t -> t list
(** One plan per conjunct, in body order. *)
