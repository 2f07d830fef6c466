(** Functional-dependency checking straight on a logical index — the
    paper's Fig. 5(b) technique: lhs → rhs holds iff
    |π(lhs∪rhs)| = |π(lhs)|, two projections plus two O(|BDD|) model
    counts; no self-join, no renaming. *)

val fd_holds : Index.t -> table_name:string -> lhs:string list -> rhs:string list -> bool
(** @raise Invalid_argument when no index covers lhs ∪ rhs. *)

val fd_soft_counts :
  Index.t ->
  table_name:string ->
  lhs:string list ->
  rhs:string list ->
  (Fcv_bdd.Nat.t * Fcv_bdd.Nat.t) option
(** Exact [(violating, total)] ordered-pair counts for a threshold
    verdict on an FD-shaped constraint: pairs of π(lhs∪rhs) tuples
    sharing the lhs, split by whether their rhs agree — Σ n(n−1) and
    Σ n² over the per-lhs rhs co-domain sizes n, in arbitrary
    precision.  Matches the general BDD path and the naive recount
    binding-for-binding.  [None] when no index covers lhs ∪ rhs. *)

val recognize_fd :
  Fcv_relation.Database.t -> Formula.t -> (string * string list * string) option
(** Recognise ∀x̄,r1,r2. R(…r1…) ∧ R(…r2…) → r1 = r2 as
    [(relation, lhs attributes, rhs attribute)] so the checker can
    route it to {!fd_holds} instead of compiling the self-join.  A
    quantified variable occurring once in the hypothesis and not in
    the consequent (a payload column, e.g. [k1]/[k2] in
    [R(s,d1,k1) ∧ R(s,d2,k2) → d1 = d2]) is read as a wildcard: the
    verdict is the same, though the binding count is not (see
    {!Checker.check}). *)

val ind_holds :
  Index.t -> r:string -> attrs_r:string list -> s:string -> attrs_s:string list -> bool
(** Inclusion dependency R[attrs_r] ⊆ S[attrs_s]: projections, a
    rename onto shared blocks, and an O(1) emptiness test of the
    difference.  Attributes pair positionally and must share domains.
    @raise Invalid_argument on arity/domain mismatch or missing
    covering index. *)

val mvd_holds : Index.t -> table_name:string -> lhs:string list -> mid:string list -> bool
(** Multivalued dependency lhs →→ mid (complement = the remaining
    indexed attributes): R = π(lhs∪mid) ⋈ π(lhs∪rest), tested as one
    conjunction plus canonical-node equality (§2's MVD structure).
    @raise Invalid_argument on overlap or missing covering index. *)

val violating_lhs :
  ?limit:int ->
  Index.t ->
  table_name:string ->
  lhs:string list ->
  rhs:string list ->
  Fcv_relation.Value.t list list
(** The lhs values that determine more than one rhs tuple, decoded. *)
