(* The paper's §1 running example: STUDENT / COURSE / TAKES and the
   policy "every CS student takes some Programming course".

   Shows the two evaluation routes side by side:
   - the SQL violation query (the NOT EXISTS query from the paper's
     introduction), and
   - the BDD logical-index check with the §4.4 rewrite pipeline,
   and walks through what each rewrite stage does to the formula.

   Run with: dune exec examples/curriculum.exe *)

module F = Core.Formula
module RW = Core.Rewrite

let policy =
  "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"

let () =
  let rng = Fcv_util.Rng.create 2026 in
  let db, student, course, takes =
    Fcv_datagen.University.generate rng
      {
        Fcv_datagen.University.default with
        students = 2000;
        courses = 120;
        violators = 12;
      }
  in
  Printf.printf "STUDENT: %d rows, COURSE: %d rows, TAKES: %d rows\n"
    (Fcv_relation.Table.cardinality student)
    (Fcv_relation.Table.cardinality course)
    (Fcv_relation.Table.cardinality takes);
  let c = Core.Fol_parser.of_string policy in
  Printf.printf "\npolicy (department 0 = CS, area 0 = Programming):\n  %s\n" (F.to_string c);

  (* --- the rewrite pipeline, stage by stage --------------------------- *)
  print_endline "\nrewrite pipeline (Section 4.4):";
  let prefix, matrix = RW.prenex c in
  Printf.printf "  prenex:            %s\n" (F.to_string (RW.requantify prefix matrix));
  let mode, eliminated = RW.eliminate_leading (prefix, matrix) in
  Printf.printf "  drop leading run:  %s   [check: %s]\n" (F.to_string eliminated)
    (RW.check_name mode);
  let pushed = RW.push_forall eliminated in
  Printf.printf "  push-down foralls: %s\n" (F.to_string pushed);
  (match mode with
  | RW.Check_valid ->
    Printf.printf "  violation form:    %s   [check: unsatisfiable]\n"
      (F.to_string (RW.violation eliminated))
  | RW.Check_satisfiable | RW.Check_unsatisfiable -> ());

  (* --- SQL route ------------------------------------------------------- *)
  let sql_outcome, sql_ms = Core.Checker.check_sql db c in
  Printf.printf "\nSQL violation query:  %s  in %.2f ms\n"
    (match sql_outcome with Core.Checker.Satisfied -> "satisfied" | _ -> "VIOLATED")
    sql_ms;

  (* --- BDD route --------------------------------------------------------- *)
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ c ];
  let r = Core.Checker.check index (Core.Formula.hard c) in
  Printf.printf "BDD logical indices:  %s  in %.2f ms (after one-time index build)\n"
    (match r.Core.Checker.outcome with Core.Checker.Satisfied -> "satisfied" | _ -> "VIOLATED")
    r.Core.Checker.elapsed_ms;

  (* --- drill down -------------------------------------------------------- *)
  (match Core.Violations.count index c with
  | Some n -> Printf.printf "\nviolating students (model count, no enumeration): %.0f\n" n
  | None -> ());
  match Core.Violations.enumerate ~limit:5 index c with
  | Some ws ->
    print_endline "first violating students:";
    List.iter
      (fun w ->
        List.iter
          (fun (x, v) -> Printf.printf "  %s = %s\n" x (Fcv_relation.Value.to_string v))
          w)
      ws
  | None -> ()
