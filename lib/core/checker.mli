(** The end-to-end constraint checker: typing → §4.4 rewrites →
    compilation to BDD operations over the logical indices → O(1)
    verdict off the final BDD — falling back to the SQL violation
    query (or, outside the safe fragment, the naive evaluator) when
    the node budget trips.  Every constraint is a {!Formula.spec}: one
    function ({!check}) checks it, one runner ({!check_all_pooled})
    schedules a batch. *)

type method_used = Bdd | Sql | Naive

val method_name : method_used -> string

type strategy =
  | Auto
      (** the paper's thresholding: try the BDD pipeline, fall back to
          SQL when the node budget trips *)
  | Force_sql
      (** straight to the SQL violation query (naive evaluator outside
          the safe fragment), paying no abandoned BDD attempt *)

val strategy_name : strategy -> string

type outcome = Satisfied | Violated

type rate = {
  violations : Fcv_bdd.Nat.t;  (** bindings falsifying the body *)
  total : Fcv_bdd.Nat.t;  (** bindings satisfying the hypothesis *)
  ratio : float;  (** violations / total; [0.] when [total] is zero *)
  threshold : float;
}
(** The measured violation rate of a soft (thresholded) check.  The
    counts are exact ({!Fcv_bdd.Nat}); [ratio] is their correctly
    rounded float quotient, for display — the verdict itself never
    goes through float arithmetic. *)

type result = {
  outcome : outcome;
  method_used : method_used;
  elapsed_ms : float;
  bdd_overhead_ms : float;
      (** cost of the abandoned BDD attempt when a fallback ran — the
          paper's "constant overhead" of the thresholding strategy *)
  fallback_ms : float;
      (** time spent in the fallback engine after a budget trip; [0.]
          when no trip occurred — in particular [0.] when the SQL path
          was chosen up-front ([Force_sql]), which pays neither the
          abandoned attempt nor a "fallback" *)
  rewritten : Formula.t;
      (** the formula whose BDD was (to be) built — under the
          violation polarity, the pushed-down negated matrix; the
          constraint itself when the FD fast path or an up-front SQL
          plan answered *)
  check : Rewrite.check;
  rate : rate option;
      (** measured violation rate; [Some] exactly on soft checks
          (threshold < 1), [None] on every hard check *)
}

type pipeline = {
  rewrite : Formula.t -> Rewrite.check * Formula.t;
      (** the check mode and the formula to compile; the rewrite
          chooses the polarity ({!Rewrite.polarity}) *)
  use_appquant : bool;
  use_fd_fast_path : bool;
      (** route FD-shaped constraints to {!Fd_check.fd_holds} (the
          Fig. 5(b) projection-count method) instead of compiling the
          self-join *)
}

val default_pipeline : pipeline
(** Full §4.4 rewrites under the violation polarity
    ([Rewrite.optimize Violation]), fused quantifiers. *)

val direct_pipeline : pipeline
(** Full rewrites, direct validity test (polarity ablation). *)

val naive_pipeline : pipeline
(** No rewrites, unfused quantifiers (rewrite ablation). *)

val check : ?pipeline:pipeline -> ?strategy:strategy -> Index.t -> Formula.spec -> result
(** Check one closed constraint spec; callers holding a bare formula
    pass [Formula.hard f].  Every mentioned relation needs a covering
    index ({!ensure_indices}).  [strategy] (default [Auto]) picks the
    engine: the planner ({!Planner}) passes [Force_sql] for
    constraints it expects to trip the budget, skipping the abandoned
    BDD attempt entirely.  Verdicts are strategy-independent.

    Hard specs ([threshold = 1.0]) decide the classical verdict: FD
    fast path, compile, verdict, SQL/naive fallback; [rate = None].
    Soft specs compute exact violation/support counts over the
    violation BDD (FD projection counts on FD-shaped constraints) and
    compare the satisfied fraction against the threshold in arbitrary
    precision ({!clears}); [result.rate] carries the measurement.  A
    soft spec planned to [Force_sql], or whose BDD attempt trips the
    node budget, recounts with {!Naive_eval.soft_counts}.
    @raise Invalid_argument on open formulas.
    @raise Typing.Type_error on ill-typed constraints. *)

val clears :
  threshold:float -> violations:Fcv_bdd.Nat.t -> total:Fcv_bdd.Nat.t -> bool
(** Exact threshold test: does the satisfied fraction
    [(total − violations) / total] reach [threshold]?  The threshold
    is read off its float representation as a dyadic rational P/2^k
    and the comparison runs entirely in {!Fcv_bdd.Nat} arithmetic — a
    near-threshold count cannot round across the verdict boundary.  A
    zero [total] holds vacuously. *)

type granularity = {
  batch_under_ms : float;
      (** constraints cheaper than this are chunked into one task *)
  max_batch : int;  (** at most this many constraints per chunk *)
  split_over_ms : float;
      (** constraints dearer than this are split into conjunct tasks *)
  max_parts : int;  (** split only into at most this many parts *)
}
(** Task-granularity policy for pooled {!check_all_pooled} batches: batching keeps
    task bookkeeping from dominating tiny checks; splitting keeps one
    monster conjunction from serialising a pass. *)

val default_granularity : granularity
(** 5ms batch threshold × 8-wide chunks; 250ms split threshold ×
    8 parts. *)

val split_conjuncts : Formula.t -> Formula.t list
(** Independent conjunct parts of a constraint, by
    [∀xs.(A ∧ B) ≡ (∀xs.A) ∧ (∀xs.B)] — each part keeps the full
    quantifier prefix, and a [Forall] splits only when every part
    still mentions every prefix variable.  [[f]] when nothing
    splits. *)

val check_all_pooled :
  ?granularity:granularity ->
  ?costs:float option list ->
  ?strategies:strategy list ->
  ?pool:Fcv_util.Pool.t * Replica.t ->
  Index.t ->
  Formula.spec list ->
  (result, exn) Stdlib.result list
(** Check a batch of specs — the one batch runner.  Results come back
    in input order; a spec whose check raised (ill-typed, unsupported)
    carries its exception while the others still get their verdicts.

    Without [pool] this is [List.map check] on the calling domain: no
    replica refresh, no splitting, no chunking.  With [pool] — a
    caller-owned worker pool and a replica set bound to [index], the
    long-running form that amortises worker spawn and replica
    hydration across batches — tasks run expensive-first through the
    pool's claimed-batch scheduler.  Every mentioned relation must
    then already be indexed in [index].  Per-spec costs come from
    [costs] (measured or planned milliseconds, [None] entries
    estimated from index node counts and formula size); [granularity] (default
    {!default_granularity}) chunks tiny specs and splits huge hard
    ones into conjunct tasks (a soft rate does not split).  A split
    constraint's merged result is [Satisfied] iff every part is, with
    summed times.  Batches of fewer than two specs run inline even
    with a pool.  [strategies] gives one {!strategy} per spec (default
    all [Auto]); a split or chunked spec keeps its strategy.  Verdicts,
    methods and rates are identical with and without a pool.
    @raise Invalid_argument if [costs] or [strategies] has the wrong
    length, or the replica set is bound to another index. *)

val ensure_indices : ?strategy:Ordering.strategy -> Index.t -> Formula.t list -> unit
(** Build missing full-attribute indices for every mentioned relation
    (default strategy: Prob-Converge, the paper's recommendation),
    constraint by constraint in list order — a list call lays out the
    same levels as one call per constraint. *)

val check_sql : Fcv_relation.Database.t -> Formula.t -> outcome * float
(** The SQL-only baseline: translate to the violation query, run it,
    report the verdict and elapsed milliseconds. *)
