(** Named, deterministic-seedable fault-injection points.

    The engine's hot paths call {!check} at four places; the chaos suite (and
    operators debugging production incidents) arm a subset of them with a
    firing probability and a PRNG seed, making every run reproducible.  When
    a point fires it raises {!Injected}, which the engine converts into a
    governor [Fault] termination — never a crash, and the answers emitted
    before the fault remain a valid ranked prefix (see DESIGN.md).

    Disabled (the default), {!check} is a single indirect call to a constant
    no-op closure: no branches, no lookups, no allocation.

    The catalogue:
    - [Graph_scan] (["scan"]) — a CSR neighbour scan in [Succ];
    - [Seed_batch] (["seed"]) — a seed-batch delivery by the coroutine;
    - [Join_pull] (["join"]) — a pull from an input of the ranked join;
    - [Ontology_lookup] (["onto"]) — a class-ancestor lookup of RELAX seeding;
    - [Srv_accept] (["accept"]) — a connection accept in the query server;
    - [Srv_read] (["read"]) — a request-frame read in the query server;
    - [Srv_write] (["write"]) — a response write in the query server.

    The three server points are checked by [Server]'s connection loop, not
    the engine: an injected server fault aborts one connection (typed,
    audited) and must never take the daemon down — the protocol chaos suite
    pins that.

    Arming is process-global, but the PRNG state is {e per-domain}
    (domain-local storage, re-synced on every re-arm): concurrent engine
    runs — two independent streams in one process, each on its own
    domain — draw from independent deterministic streams instead of racing
    on one.  The initial domain's stream is derived from the seed exactly
    as before parallel evaluation existed (single-domain runs reproduce
    byte-for-byte); a worker domain folds its domain id into the seed.
    Arming can come from {!arm} directly, an {!arm_spec} string (CLI
    [--failpoints]), or the [OMEGA_FAILPOINTS] environment variable (CI
    chaos job). *)

type point =
  | Graph_scan
  | Seed_batch
  | Join_pull
  | Ontology_lookup
  | Srv_accept
  | Srv_read
  | Srv_write

exception Injected of string
(** Carries the {!point_name} of the point that fired. *)

val all_points : point list

val point_name : point -> string

val point_of_name : string -> point option

val check : point -> unit
(** Called by the engine at each site.
    @raise Injected when the point is armed and its coin flip fires. *)

val arm : ?seed:int -> (point * float) list -> unit
(** [arm ~seed [(p, prob); ...]] activates the listed points, each firing
    with probability [prob] on every {!check}, driven by a splitmix64 PRNG
    seeded with [seed] (default 0) — same seed, same faults. *)

val disarm : unit -> unit
(** Restore the no-op hook. *)

val parse : string -> ((point * float) list * int option, string) result
(** Parse a spec like ["scan=0.01,join=0.05#42"] ([#seed] optional; a bare
    point name means probability 1). *)

val arm_spec : string -> (unit, string) result
(** {!parse} then {!arm}. *)

val env_var : string
(** ["OMEGA_FAILPOINTS"]. *)

val arm_from_env : unit -> (bool, string) result
(** Arm from [OMEGA_FAILPOINTS] if set; [Ok true] when armed, [Ok false]
    when the variable is absent or empty. *)
