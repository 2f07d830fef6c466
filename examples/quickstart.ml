(* Quickstart: declare a tiny database, state a constraint in the
   textual FOL syntax, build logical indices, check the constraint and
   list the violating tuples.

   Run with: dune exec examples/quickstart.exe *)

module R = Fcv_relation

let () =
  (* 1. A database: domains are shared dictionaries; tables type their
        attributes by domain so values join across tables. *)
  let db = R.Database.create () in
  let people =
    R.Database.create_table db ~name:"people"
      ~attrs:[ ("name", "person"); ("city", "city") ]
  in
  let cities =
    R.Database.create_table db ~name:"cities"
      ~attrs:[ ("city", "city"); ("state", "state") ]
  in
  let s x = R.Value.Str x in
  List.iter
    (fun (n, c) -> ignore (R.Table.insert people [| s n; s c |]))
    [
      ("alice", "toronto");
      ("bob", "oshawa");
      ("carol", "newark");
      ("dan", "gotham");  (* gotham is not a registered city *)
    ];
  List.iter
    (fun (c, st) -> ignore (R.Table.insert cities [| s c; s st |]))
    [ ("toronto", "ON"); ("oshawa", "ON"); ("newark", "NJ") ];

  (* 2. A constraint: every person's city must be registered. *)
  let constraint_ =
    Core.Fol_parser.of_string
      "forall p, c . people(p, c) -> (exists st . cities(c, st))"
  in
  Printf.printf "constraint: %s\n\n" (Core.Formula.to_string constraint_);

  (* 3. Logical indices: one BDD per relation, ordered by the
        Prob-Converge heuristic, all in one shared manager. *)
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ constraint_ ];
  List.iter
    (fun e ->
      Printf.printf "index on %-8s %4d BDD nodes, built in %.3f ms\n"
        (R.Table.name e.Core.Index.table)
        (Core.Index.entry_size index e)
        (e.Core.Index.build_time *. 1000.))
    (Core.Index.entries index);

  (* 4. Check: the rewrite pipeline turns the check into an O(1) test
        on the final BDD. *)
  let r = Core.Checker.check index (Core.Formula.hard constraint_) in
  Printf.printf "\nverdict: %s  (method: %s, %.3f ms)\n"
    (match r.Core.Checker.outcome with
    | Core.Checker.Satisfied -> "SATISFIED"
    | Core.Checker.Violated -> "VIOLATED")
    (Core.Checker.method_name r.Core.Checker.method_used)
    r.Core.Checker.elapsed_ms;
  Printf.printf "rewritten for evaluation: %s\n" (Core.Formula.to_string r.Core.Checker.rewritten);

  (* 5. Only now pay for the expensive part: who violates it? *)
  match Core.Violations.enumerate index constraint_ with
  | Some witnesses when witnesses <> [] ->
    print_endline "\nviolating bindings:";
    List.iter
      (fun w ->
        print_endline
          ("  "
          ^ String.concat ", "
              (List.map (fun (x, v) -> x ^ " = " ^ R.Value.to_string v) w)))
      witnesses
  | _ -> print_endline "\nno violations"
