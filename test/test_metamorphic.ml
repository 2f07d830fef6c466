(** Metamorphic tests over the §4 rewrite pipeline: disabling any one
    rewrite rule (prenex pull-ups, leading-quantifier elimination, ∀
    push-down, fused [appex]/[appall] quantification, violation
    polarity, the FD fast path) must never change a verdict — only
    cost.  Checked on random closed constraints against the naive
    ground truth, and on the paper's hand-written university
    constraints. *)

module C = Core.Checker
module Rw = Core.Rewrite

(* Each ablation disables exactly one rule relative to the full
   default pipeline, keeping its violation polarity: a validity check
   compiles the negated matrix and tests unsatisfiability. *)
let negated f = (Rw.Check_unsatisfiable, Rw.nnf (Core.Formula.Not f))

let no_prenex f = negated (Rw.rename_apart f)

let no_elimination f =
  let prefix, matrix = Rw.prenex f in
  (Rw.Check_unsatisfiable, Rw.violation (Rw.requantify prefix matrix))

let no_pushdown f =
  match Rw.eliminate_leading (Rw.prenex f) with
  | Rw.Check_valid, g -> negated g
  | r -> r

let ablations =
  [
    ("no-prenex", { C.default_pipeline with C.rewrite = no_prenex });
    ("no-leading-elimination", { C.default_pipeline with C.rewrite = no_elimination });
    ("no-forall-pushdown", { C.default_pipeline with C.rewrite = no_pushdown });
    ("unfused-quantifiers", { C.default_pipeline with C.use_appquant = false });
    ("direct-polarity", C.direct_pipeline);
    ("no-fd-fast-path", { C.default_pipeline with C.use_fd_fast_path = false });
    ("naive-pipeline", C.naive_pipeline);
  ]

let holds_under pipeline index f =
  (C.check ~pipeline index (Core.Formula.hard f)).C.outcome = C.Satisfied

let prop_ablations_preserve_verdicts =
  QCheck.Test.make ~count:150
    ~name:"every single-rule ablation preserves every verdict"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let expected = Core.Naive_eval.holds ~typing db f in
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        List.for_all
          (fun (_, pipeline) -> holds_under pipeline index f = expected)
          (("default", C.default_pipeline) :: ablations))

(* Strategy metamorphism: however the checker is steered — the BDD
   pipeline first, forced onto the SQL violation query, or the BDD
   pipeline under a budget so tight every compile trips and falls
   back — the verdict never changes.  This is the invariant that makes
   the planner free to choose on cost alone. *)
let strategies = [ ("auto", C.Auto); ("force-sql", C.Force_sql) ]

let prop_strategies_preserve_verdicts =
  QCheck.Test.make ~count:120
    ~name:"every forced strategy (and a tripping budget) preserves every verdict"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let expected = Core.Naive_eval.holds ~typing db f in
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        List.for_all
          (fun (_, strategy) ->
            ((C.check ~strategy index (Core.Formula.hard f)).C.outcome = C.Satisfied) = expected)
          strategies
        &&
        (* thresholding under a budget left too tight to compile
           anything: the fallback must agree too *)
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 8);
        ((C.check index (Core.Formula.hard f)).C.outcome = C.Satisfied) = expected)

(* Constraint shapes whose checks take different routes: a key FD with
   named payload columns (FD fast path), a key FD whose shared variable
   is a key column, and a reference whose ∃ binds two variables (∀
   pushed down after negation). *)
let payload_shapes =
  List.map Core.Fol_parser.of_string
    [
      "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
      "forall s, d1, d2, k . student(s, d1, k) and student(s, d2, k) -> d1 = d2";
      "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
    ]

(* Route parity on those shapes: BDD (default, with the FD fast path),
   the compiled self-join, the unrewritten pipeline, the SQL violation
   query and the naive evaluator agree — on a clean instance, with a
   student in two departments, and with enrolments left dangling. *)
let test_payload_shapes_route_parity () =
  let instance damage =
    let db, student, _, takes =
      Fcv_datagen.University.generate (Fcv_util.Rng.create 3)
        { Fcv_datagen.University.default with students = 16; courses = 6; departments = 4 }
    in
    (match damage with
    | `None -> ()
    | `Two_departments ->
      let row = Fcv_relation.Table.row student 0 in
      Fcv_relation.Table.insert_coded student [| row.(0); (row.(1) + 1) mod 4; row.(2) |]
    | `Dangling ->
      let s = (Fcv_relation.Table.row takes 0).(0) in
      Fcv_relation.Table.to_list student
      |> List.iter (fun row ->
             if row.(0) = s then ignore (Fcv_relation.Table.delete_coded student row)));
    db
  in
  List.iter
    (fun (name, damage) ->
      let db = instance damage in
      let index = Core.Index.create db in
      C.ensure_indices index payload_shapes;
      List.iteri
        (fun i f ->
          let expected = Core.Naive_eval.holds db f in
          (* the damage must show: the first FD breaks with a second
             department, the reference with a dangling enrolment *)
          if (damage = `Two_departments && i = 0) || (damage = `Dangling && i = 2) then
            Alcotest.(check bool) ("damage shows on " ^ name) false expected;
          let agree route holds =
            Alcotest.(check bool)
              (Printf.sprintf "%s = naive on %s: %s" route name (Core.Formula.to_string f))
              expected holds
          in
          agree "default" (holds_under C.default_pipeline index f);
          agree "no-fd-fast-path"
            (holds_under { C.default_pipeline with C.use_fd_fast_path = false } index f);
          agree "naive-pipeline" (holds_under C.naive_pipeline index f);
          agree "force-sql" ((C.check ~strategy:C.Force_sql index (Core.Formula.hard f)).C.outcome = C.Satisfied);
          agree "sql" (fst (C.check_sql db f) = C.Satisfied))
        payload_shapes)
    [ ("clean", `None); ("two departments", `Two_departments); ("dangling", `Dangling) ]

(* The same invariant on realistic constraints: the university
   examples, with and without planted violators. *)
let test_university_ablations () =
  let constraints =
    List.map Core.Fol_parser.of_string
      [
        "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))";
        "forall s . forall c . takes(s, c) -> (exists g . student(s, g, _))";
        "forall s . forall a1 . forall a2 . \
         student(s, _, a1) and student(s, _, a2) -> a1 = a2";
      ]
    @ payload_shapes
  in
  List.iter
    (fun violators ->
      let rng = Fcv_util.Rng.create 11 in
      let db, _, _, _ =
        Fcv_datagen.University.generate rng
          {
            Fcv_datagen.University.default with
            students = 60;
            courses = 15;
            violators;
          }
      in
      let index = Core.Index.create db in
      C.ensure_indices index constraints;
      List.iter
        (fun f ->
          let expected = holds_under C.default_pipeline index f in
          List.iter
            (fun (name, pipeline) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees (violators=%d)" name violators)
                expected (holds_under pipeline index f))
            ablations)
        constraints)
    [ 0; 5 ]

let suite =
  [
    Gen.qcheck_case prop_ablations_preserve_verdicts;
    Gen.qcheck_case prop_strategies_preserve_verdicts;
    Alcotest.test_case "university constraints under every ablation" `Quick
      test_university_ablations;
    Alcotest.test_case "payload FD and multi-variable exists: route parity" `Quick
      test_payload_shapes_route_parity;
  ]

let () = Registry.register "metamorphic" suite
