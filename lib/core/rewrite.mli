(** The paper's query re-write rules (§4), applied in the prioritised
    order of §4.4: prenex normal form (subsuming the ∃/∨ and ∀/∧
    pull-ups of Eqs. 3–4), leading-quantifier elimination (§4.1), and
    ∀ push-down across conjunctions (Rule 5).  Rule 5 runs last, on
    the formula compiled under each polarity: the matrix itself under
    [Direct] (and for satisfiability checks), nnf(¬matrix) under
    [Violation] — so it pushes the ∀s that negation makes of the
    matrix's ∃s.  The equi-join rename (§4.2) lives in {!Compile}. *)

type check = Check_valid | Check_satisfiable | Check_unsatisfiable
(** How to read the final BDD: a dropped leading ∀-run means the
    constraint holds iff the matrix is valid — or, when the negated
    matrix was compiled, iff that is unsatisfiable; a dropped ∃-run,
    iff the matrix is satisfiable. *)

val check_name : check -> string
(** ["valid"] / ["satisfiable"] / ["unsatisfiable"]. *)

type polarity = Direct | Violation
(** [Violation] compiles nnf(¬matrix) of a validity check and tests
    unsatisfiability — negation sits on small sparse atom BDDs and ∧
    short-circuits.  [Direct] compiles the matrix and tests
    validity. *)

type quantifier = Q_exists | Q_forall

val nnf : Formula.t -> Formula.t
(** Negation normal form: ¬ pushed to literals, [Implies]/[Iff]
    expanded. *)

val prenex : Formula.t -> (quantifier * string) list * Formula.t
(** Prefix (outermost first, variables renamed apart) and
    quantifier-free matrix. *)

val rename_apart : Formula.t -> Formula.t
(** Rename binders so no name is bound twice or shadows a free
    variable; conflict-free names are kept.  {!Compile} requires
    shadow-free input. *)

val requantify : (quantifier * string) list -> Formula.t -> Formula.t
(** Rebuild a formula from prefix + matrix, grouping adjacent
    same-kind quantifiers. *)

val eliminate_leading :
  (quantifier * string) list * Formula.t -> check * Formula.t
(** Drop the maximal leading run of same-kind quantifiers (§4.1). *)

val push_forall : Formula.t -> Formula.t
(** Rule 5: ∀x(φ₁ ∧ φ₂) ⇝ ∀xφ₁ ∧ ∀xφ₂, recursively; vacuous
    quantifiers are dropped (domains are non-empty). *)

val violation : Formula.t -> Formula.t
(** nnf(¬matrix) with Rule 5 applied after the negation: the formula
    the [Violation] polarity compiles for a validity check. *)

val compiled : polarity -> Formula.t -> check * Formula.t
(** The full §4.4 pipeline under a polarity: the check mode and the
    formula to compile ({!violation} of the matrix for a validity
    check under [Violation], the pushed matrix otherwise).  Records no
    telemetry — for displaying what a check compiles. *)

val optimize : polarity -> Formula.t -> check * Formula.t
(** {!compiled}, recording the [rewrite.*] counters and event (leading
    quantifiers dropped; whether Rule 5 changed the compiled
    formula). *)

val no_rewrite : Formula.t -> check * Formula.t
(** Identity pipeline (ablation): validity of the unchanged closed
    formula. *)
