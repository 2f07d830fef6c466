(** Differential test oracle: three independent evaluators — the BDD
    checker, the naive evaluator ({!Core.Naive_eval}, the ground
    truth), and the SQL translation executed by the relational engine
    ({!Core.To_sql} → {!Fcv_sql.Exec}) — must agree on random closed
    constraints over random small databases.  Failures shrink to a
    minimal counterexample formula via {!Gen.formula_shrink}.

    Determinism: {!Gen.qcheck_case} pins the QCheck seed ([QCHECK_SEED]
    overrides, default = the one bench/ci.sh exports) and prints the
    failing seed on a counterexample. *)

module F = Core.Formula
module C = Core.Checker

let outcome_bool = function C.Satisfied -> true | C.Violated -> false

let case =
  QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000)

(* One differential case: returns true when every applicable evaluator
   agrees with the naive ground truth.  Formulas outside a fragment
   (ill-typed, or SQL-unsafe for the To_sql path) vacuously pass that
   evaluator. *)
let agree ?max_nodes (f, seed) =
  let f = Gen.close f in
  let db = Gen.random_db seed in
  match Core.Typing.infer db f with
  | exception Core.Typing.Type_error _ -> true
  | typing ->
    let expected = Core.Naive_eval.holds ~typing db f in
    let index = Core.Index.create db in
    C.ensure_indices index [ f ];
    Option.iter
      (fun headroom ->
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + headroom))
      max_nodes;
    let r = C.check index (Core.Formula.hard f) in
    let bdd_ok = outcome_bool r.C.outcome = expected in
    let sql_ok =
      match Core.To_sql.violated db typing f with
      | exception Core.To_sql.Not_safe _ -> true
      | violated -> violated = not expected
    in
    bdd_ok && sql_ok

let prop_three_way_agreement =
  QCheck.Test.make ~count:250 ~name:"BDD = naive = SQL(Exec) on random constraints"
    case
    (fun c -> agree c)

(* Same oracle under a starved node budget: the checker is forced
   through its SQL/naive fallbacks mid-compile and must still return
   the ground-truth verdict. *)
let prop_agreement_under_budget =
  QCheck.Test.make ~count:120 ~name:"fallback paths preserve the verdict under a tiny budget"
    case
    (fun c -> agree ~max_nodes:24 c)

(* The fallback bookkeeping itself: when the budget trips, the result
   must say so (non-BDD method, non-negative abandoned-work time). *)
let prop_fallback_bookkeeping =
  QCheck.Test.make ~count:60 ~name:"fallback results carry method and overhead"
    case
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 24);
        let r = C.check index (Core.Formula.hard f) in
        (match r.C.method_used with
        | C.Bdd -> r.C.bdd_overhead_ms = 0.
        | C.Sql | C.Naive -> r.C.bdd_overhead_ms >= 0.))

let suite =
  List.map Gen.qcheck_case
    [ prop_three_way_agreement; prop_agreement_under_budget; prop_fallback_bookkeeping ]

let () = Registry.register "differential" suite
