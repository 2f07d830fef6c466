(* Data-quality auditing on the customer data — the paper's headline
   scenario (§1, §5.2): a table of customers (areacode, number, city,
   state, zipcode) and a battery of constraints of the kinds the paper
   evaluates:

   - membership:   if city = X then areacode ∈ {...}   (via a
                   Constraints(city, areacode) relation, Fig. 5a),
   - implication:  if city = 'Toronto' then state = 'Ontario' style,
   - functional dependency: areacode → state (Fig. 5b).

   Each constraint is checked with both the SQL engine and the BDD
   logical index; violations are then enumerated from the BDDs.

   Run with: dune exec examples/phone_quality.exe *)

module R = Fcv_relation
module C = Core.Checker

let outcome = function C.Satisfied -> "satisfied" | C.Violated -> "VIOLATED"

let () =
  let rng = Fcv_util.Rng.create 7 in
  let db = Fcv_datagen.Customers.make_db () in
  let cust, world =
    Fcv_datagen.Customers.generate ~violation_rate:0.001 rng db ~name:"cust" ~rows:50_000
  in
  let _cons =
    Fcv_datagen.Customers.constraints_table rng db world ~name:"allowed" ~n:10_000
  in
  Printf.printf "customers: %d rows over domains (%d, %d, %d, %d, %d)\n"
    (R.Table.cardinality cust) Fcv_datagen.Customers.n_areacode
    Fcv_datagen.Customers.n_number Fcv_datagen.Customers.n_city
    Fcv_datagen.Customers.n_state Fcv_datagen.Customers.n_zip;

  let constraints =
    [
      ( "constrained cities use an allowed areacode",
        "forall c, a . cust(a, _, c, _, _) and (exists a2 . allowed(c, a2)) \
         -> allowed(c, a)" );
      ( "functional dependency areacode -> state",
        "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2" );
      ( "city 0 customers live in city 0's home state",
        Printf.sprintf "forall s . cust(_, _, 0, s, _) -> s = %d"
          world.Fcv_datagen.Customers.city_state.(0) );
      ( "zipcode determines the city",
        "forall z, c1, c2 . cust(_, _, c1, _, z) and cust(_, _, c2, _, z) -> c1 = c2" );
    ]
  in

  (* one-time index construction — the paper's two projection indices
     ncs = (areacode, city, state) and csz = (city, state, zipcode),
     plus the Constraints relation, all ordered by Prob-Converge *)
  let t0 = Fcv_util.Timer.now () in
  let index = Core.Index.create db in
  let parsed = List.map (fun (_, s) -> Core.Fol_parser.of_string s) constraints in
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "areacode"; "city"; "state" ]
       ~strategy:Core.Ordering.Prob_converge ());
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "city"; "state"; "zipcode" ]
       ~strategy:Core.Ordering.Prob_converge ());
  ignore (Core.Index.add index ~table_name:"allowed" ~strategy:Core.Ordering.Prob_converge ());
  Printf.printf "index build: %.1f ms total, sizes:" ((Fcv_util.Timer.now () -. t0) *. 1000.);
  List.iter
    (fun e ->
      Printf.printf " %s=%d" (R.Table.name e.Core.Index.table) (Core.Index.entry_size index e))
    (Core.Index.entries index);
  print_newline ();

  Printf.printf "\n%-45s %12s %12s\n" "constraint" "SQL (ms)" "BDD (ms)";
  List.iter2
    (fun (label, _) c ->
      let sql_outcome, sql_ms = C.check_sql db c in
      let r = C.check index (Core.Formula.hard c) in
      Printf.printf "%-45s %9.2f %2s %9.2f %2s\n" label sql_ms
        (match sql_outcome with C.Satisfied -> "ok" | _ -> "!!")
        r.C.elapsed_ms
        (match r.C.outcome with C.Satisfied -> "ok" | _ -> "!!");
      if r.C.outcome <> (match sql_outcome with o -> o) then
        print_endline "  WARNING: methods disagree!")
    constraints parsed;

  (* sample some witnesses of the first violated constraint *)
  print_newline ();
  List.iter2
    (fun (label, _) c ->
      let r = C.check index (Core.Formula.hard c) in
      if r.C.outcome = C.Violated then begin
        Printf.printf "sample violations of %S:\n" label;
        match Core.Violations.enumerate ~limit:3 index c with
        | Some ws ->
          List.iter
            (fun w ->
              print_endline
                ("  "
                ^ String.concat ", "
                    (List.map
                       (fun (x, v) -> x ^ "=" ^ R.Value.to_string v)
                       w)))
            ws
        | None -> print_endline "  (no finite witnesses)"
      end)
    constraints parsed;
  ignore outcome
