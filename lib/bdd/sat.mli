(** Model counting and enumeration — the machinery behind violation
    counting and witness listing. *)

val count : Manager.t -> int -> float
(** Satisfying assignments over the manager's full variable set (as a
    float; counts overflow native ints quickly).  To count over a
    sub-space use {!count_over} — hand-dividing by [2^(unused bits)]
    is the historical footgun it replaces. *)

val count_over : Manager.t -> int -> levels:int array -> float
(** Satisfying assignments over exactly the sub-space spanned by
    [levels] (sorted, distinct).
    @raise Invalid_argument when the root's support escapes
    [levels]. *)

val count_exact : Manager.t -> int -> Nat.t
val count_over_exact : Manager.t -> int -> levels:int array -> Nat.t

val count_restrict_exact :
  Manager.t -> int -> fix:(int * bool) list -> levels:int array -> Nat.t
(** Exact counterparts of {!count}/{!count_over}, same walk in
    arbitrary-precision {!Nat} arithmetic — a float count is only
    integer-exact below [2^53]; use these when the count feeds a
    comparison (threshold verdicts, repair kill counts) rather than a
    cost estimate.  [count_restrict_exact] counts, over [levels], the
    restriction fixing each [(level, value)] of [fix]: one walk, no
    BDD allocation — restrict-and-count.
    @raise Invalid_argument when support escapes [levels] + [fix],
    when the two overlap, or on conflicting [fix] entries. *)

val count_union_exact :
  Manager.t -> int -> fixes:(int * bool) list list -> levels:int array -> Nat.t
(** Models of [root] over [levels] that satisfy at least one of the
    [fixes] (each a list of [(level, value)] pins): the union count by
    inclusion–exclusion over {!count_restrict_exact} walks, summed
    exactly (positive and negative terms apart, one subtraction) so no
    term beyond [2^53] loses a unit.  The repair planner's kill
    counts.  Exponential in [List.length fixes]. *)

val any : Manager.t -> int -> (int * bool) list option
(** One satisfying partial assignment (ascending levels; missing
    levels are don't-cares), or [None] if unsatisfiable. *)

val fold_cubes :
  Manager.t -> int -> init:'a -> f:('a -> (int * bool) list -> 'a) -> 'a
(** Fold over all satisfying cubes.  Cubes are disjoint, cover exactly
    the models, and list [(level, value)] pairs ascending; unmentioned
    levels are don't-cares. *)

val all_cubes : Manager.t -> int -> (int * bool) list list
(** Materialised {!fold_cubes}; for small result sets. *)

val iter_expanded :
  levels:int array -> (int * bool) list -> f:(bool array -> unit) -> unit
(** Expand a cube to total assignments over [levels] (sorted),
    branching don't-cares both ways; [f] receives a reused array
    indexed by position in [levels]. *)
