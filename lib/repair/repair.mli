(** Repair planning: from detecting constraint violations to
    proposing a tuple-deletion set that restores every registered
    constraint.

    Three planners behind one interface, following the
    Livshits–Kimelfeld cardinality-repair dichotomy ("The Complexity
    of Computing a Cardinality Repair for Functional Dependencies"):

    - {e exact} — provably minimum-cardinality deletion sets for the
      tractable FD classes: every constraint must be FD-shaped
      ({!Core.Fd_check.recognize_fd}) and, per relation, the lhs sets
      must form a chain under inclusion (single FDs and lhs-chains —
      the dichotomy's P side).  Solved by per-equivalence-class
      max-keep recursion, seeded off the violation cubes
      ({!Core.Fd_check.violating_lhs}) so clean groups are never
      materialised.  @raise Not_tractable otherwise.
    - {e greedy} — the general case: repeatedly delete the whole
      supporting row-set of the grounded-atom pattern whose removal
      kills the most remaining violation witnesses (ties toward the
      smallest row-set), scored by restrict-and-count over the
      violation BDDs ({!Core.Violations.patterns}).
    - {e brute} — exhaustive minimum search over candidate subsets,
      checked by the naive evaluator; a reference for tiny instances,
      used only by tests.

    Planning is read-only: it runs on a deep clone of the database
    (fresh dictionaries, fresh tables, fresh index), so a plan can be
    inspected before — or instead of — being applied. *)

type strategy = Exact | Greedy | Brute

val strategy_name : strategy -> string
val strategy_of_string : string -> (strategy, string) result

exception Not_tractable of string
(** The exact planner's refusal: a constraint is not FD-shaped, or a
    relation's lhs sets do not form a chain (the dichotomy's NP-hard
    side) — use [Greedy]. *)

type deletion = {
  table : string;
  row : Fcv_relation.Value.t list;  (** decoded *)
  cells : string list;  (** textual, protocol-/WAL-ready *)
  blame : float;
      (** the planner's score for this deletion — {b two different
          quantities} depending on the planner, never comparable
          across planners: greedy records its pattern's {e exact} kill
          count ({!Core.Violations.patterns}' [p_kills]) at selection
          time; exact/brute record the per-row
          {!Core.Violations.blame} against the pre-repair state, which
          is an {e upper bound} on the witnesses the deletion kills
          (rows sharing the row's pattern projection share full
          credit) *)
}

type plan = {
  strategy : strategy;
  deletions : deletion list;  (** deterministic order *)
  violated_before : int;  (** constraints violated before the repair *)
  violated_after : int;
  witnesses_before : float;  (** total violation witnesses before *)
  witnesses_after : float;
  complete : bool;  (** the deletions restore every constraint *)
  elapsed_ms : float;
}

val clone_db : Fcv_relation.Database.t -> Fcv_relation.Database.t
(** Deep copy: fresh dictionaries re-interned in code order (codes
    coincide with the source's) and fresh tables with copied rows —
    unlike {!Core.Index_io.load_string}, nothing is shared. *)

val plan :
  ?strategy:strategy ->
  ?max_deletions:int ->
  ?max_nodes:int ->
  ?witness_limit:int ->
  Fcv_relation.Database.t ->
  Core.Formula.t list ->
  plan
(** Compute a deletion set restoring [formulas] on [db] (default
    strategy [Greedy]).  [db] is not touched — planning runs on a
    {!clone_db} scratch.  [max_deletions] caps the set (a capped plan
    reports [complete = false] if violations remain); [witness_limit]
    (default 256) bounds the witnesses attributed per constraint per
    round in the greedy/brute candidate harvest.
    @raise Not_tractable from the exact planner on intractable input.
    @raise Invalid_argument from the brute planner on non-tiny
    instances. *)

val plan_specs :
  ?strategy:strategy ->
  ?max_deletions:int ->
  ?max_nodes:int ->
  ?witness_limit:int ->
  Fcv_relation.Database.t ->
  Core.Formula.spec list ->
  plan
(** {!plan} over constraint specs: the greedy planner's violated
    re-filter (and the before/after measurements) go through
    {!Core.Checker.check}, so a soft constraint stops costing
    deletions as soon as its violation rate clears its threshold.
    The exact and brute planners ignore thresholds — their optimality
    arguments are about full (zero-violation) repairs — but still
    report spec-aware before/after counts.  [plan db formulas] is
    [plan_specs db (List.map Core.Formula.hard formulas)]. *)

val apply_to : plan -> Fcv_relation.Database.t -> int
(** Apply the plan's deletions to [db]'s base tables (first matching
    row each); the number actually removed.  For callers that keep
    plain databases — the serving tier instead replays the deletions
    through its own journaled mutation path. *)

val plan_json : plan -> Fcv_util.Telemetry.json
(** The wire/CLI shape: strategy, deletions (table, row, blame),
    before/after counts, completeness, latency. *)
