(** Data-generator tests: determinism by seed, the structural
    properties each family promises (products, unions of products,
    functional dependencies of the customer data), and violation
    injection. *)

module R = Fcv_relation
module S = Fcv_datagen.Synth

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_synth_determinism () =
  let gen seed =
    let rng = Fcv_util.Rng.create seed in
    let _, t = S.table rng ~name:"r" ~attrs:5 ~dom:50 ~rows:2000 ~family:(S.Prod 4) in
    R.Table.to_list t
  in
  check "same seed, same data" true (gen 7 = gen 7);
  check "different seed, different data" true (gen 7 <> gen 8)

let test_synth_domains () =
  let rng = Fcv_util.Rng.create 1 in
  let _, t = S.table rng ~name:"r" ~attrs:4 ~dom:30 ~rows:1000 ~family:S.Random in
  check_int "cardinality" 1000 (R.Table.cardinality t);
  check_int "arity" 4 (R.Table.arity t);
  for i = 0 to 3 do
    check_int "fixed active domain" 30 (R.Table.dom_size t i)
  done;
  let ok = ref true in
  R.Table.iter t (fun row -> Array.iter (fun c -> if c < 0 || c >= 30 then ok := false) row);
  check "codes in range" true !ok

(* 1-PROD: the relation must factor exactly — |R| = prod of per-factor
   distinct counts for SOME partition.  We verify the weaker but
   telling property that |R| = |pi_A(R)| * |pi_B(R)| holds for the
   generating partition by checking all 2-partitions. *)
let test_one_prod_structure () =
  let rng = Fcv_util.Rng.create 42 in
  let _, t = S.table rng ~name:"r" ~attrs:4 ~dom:40 ~rows:1500 ~family:(S.Prod 1) in
  let n = R.Table.distinct_count t in
  let subsets =
    (* proper nonempty subsets of {0,1,2,3} containing attribute 0 *)
    List.filter
      (fun s -> s <> [] && List.length s < 4 && List.mem 0 s)
      (List.init 16 (fun mask -> List.filter (fun i -> (mask lsr i) land 1 = 1) [ 0; 1; 2; 3 ]))
  in
  let factorises =
    List.exists
      (fun s ->
        let complement = List.filter (fun i -> not (List.mem i s)) [ 0; 1; 2; 3 ] in
        R.Stats.distinct t s * R.Stats.distinct t complement = n)
      subsets
  in
  check "factors as a product" true factorises

let test_family_names () =
  Alcotest.(check string) "1-PROD" "1-PROD" (S.family_name (S.Prod 1));
  Alcotest.(check string) "8-PROD" "8-PROD" (S.family_name (S.Prod 8));
  Alcotest.(check string) "RANDOM" "RANDOM" (S.family_name S.Random)

let test_customers_domains_match_paper () =
  check_int "areacode" 281 Fcv_datagen.Customers.n_areacode;
  check_int "number" 889 Fcv_datagen.Customers.n_number;
  check_int "city" 10894 Fcv_datagen.Customers.n_city;
  check_int "state" 50 Fcv_datagen.Customers.n_state;
  check_int "zipcode" 17557 Fcv_datagen.Customers.n_zip

let test_customers_fds_hold_when_clean () =
  let rng = Fcv_util.Rng.create 3 in
  let db = Fcv_datagen.Customers.make_db () in
  let t, _ = Fcv_datagen.Customers.generate rng db ~name:"cust" ~rows:3000 in
  check_int "rows" 3000 (R.Table.cardinality t);
  (* schema: areacode number city state zipcode = positions 0..4 *)
  check "city -> state" true (R.Stats.fd_holds t ~lhs:[ 2 ] ~rhs:[ 3 ]);
  check "zipcode -> city" true (R.Stats.fd_holds t ~lhs:[ 4 ] ~rhs:[ 2 ]);
  check "areacode -> state" true (R.Stats.fd_holds t ~lhs:[ 0 ] ~rhs:[ 3 ])

let test_customers_violation_injection () =
  let rng = Fcv_util.Rng.create 4 in
  let db = Fcv_datagen.Customers.make_db () in
  let t, _ =
    Fcv_datagen.Customers.generate ~violation_rate:0.2 rng db ~name:"cust" ~rows:3000
  in
  check "areacode -> state broken" false (R.Stats.fd_holds t ~lhs:[ 0 ] ~rhs:[ 3 ])

let test_constraints_table () =
  let rng = Fcv_util.Rng.create 5 in
  let db = Fcv_datagen.Customers.make_db () in
  let cust, world = Fcv_datagen.Customers.generate rng db ~name:"cust" ~rows:2000 in
  let cons = Fcv_datagen.Customers.constraints_table rng db world ~name:"cons" ~n:5000 in
  check_int "requested size" 5000 (R.Table.cardinality cons);
  (* constraints list areacodes legitimate for the city's state, so a
     clean customer row never pairs a constrained city with a foreign
     areacode of ANOTHER state *)
  ignore cust;
  let ok = ref true in
  R.Table.iter cons (fun row ->
      let city = row.(0) and areacode = row.(1) in
      if world.Fcv_datagen.Customers.city_state.(city)
         <> world.Fcv_datagen.Customers.area_state.(areacode)
      then ok := false);
  check "constraints respect geography" true !ok

let test_university_violators () =
  let rng = Fcv_util.Rng.create 6 in
  let db, student, course, takes =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 300; violators = 5 }
  in
  ignore (db, course, takes);
  check_int "students" 300 (R.Table.cardinality student);
  let c =
    Core.Fol_parser.of_string
      "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
  in
  let naive = Core.Naive_eval.violating_bindings db c in
  check_int "exactly the injected violators" 5 (List.length naive)

let test_university_zero_violators_clean () =
  let rng = Fcv_util.Rng.create 7 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng { Fcv_datagen.University.default with students = 200 }
  in
  let c =
    Core.Fol_parser.of_string
      "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
  in
  check "clean" true (Core.Naive_eval.holds db c)

let test_retail_clean_and_dirty () =
  let cfg =
    { Fcv_datagen.Retail.default with Fcv_datagen.Retail.customers = 300; products = 80; orders = 1200 }
  in
  let rng = Fcv_util.Rng.create 8 in
  let clean = Fcv_datagen.Retail.generate rng cfg in
  (* all audit constraints hold on clean data (checked through the
     whole pipeline) *)
  let index = Core.Index.create clean.Fcv_datagen.Retail.db in
  let parsed =
    List.map (fun (_, s) -> Core.Fol_parser.of_string s) Fcv_datagen.Retail.audit_constraints
  in
  Core.Checker.ensure_indices index parsed;
  List.iteri
    (fun i c ->
      let r = Core.Checker.check index (Core.Formula.hard c) in
      check (Printf.sprintf "clean constraint %d" i) true
        (r.Core.Checker.outcome = Core.Checker.Satisfied))
    parsed;
  (* corruption knobs break exactly the matching constraints *)
  let dirty =
    Fcv_datagen.Retail.generate rng
      { cfg with Fcv_datagen.Retail.bad_dest_rate = 0.05; bad_channel_rate = 0.05 }
  in
  let index2 = Core.Index.create dirty.Fcv_datagen.Retail.db in
  Core.Checker.ensure_indices index2 parsed;
  let outcomes = List.map (fun c -> (Core.Checker.check index2 (Core.Formula.hard c)).Core.Checker.outcome) parsed in
  (* constraint 3 = destination agreement, 4 = channel policy (0-based) *)
  check "destination constraint broken" true (List.nth outcomes 3 = Core.Checker.Violated);
  check "channel constraint broken" true (List.nth outcomes 4 = Core.Checker.Violated);
  check "brand FD still fine" true (List.nth outcomes 5 = Core.Checker.Satisfied)

let suite =
  [
    Alcotest.test_case "retail audit workload" `Quick test_retail_clean_and_dirty;
    Alcotest.test_case "synth determinism" `Quick test_synth_determinism;
    Alcotest.test_case "synth domains/cardinality" `Quick test_synth_domains;
    Alcotest.test_case "1-PROD factorises" `Quick test_one_prod_structure;
    Alcotest.test_case "family names" `Quick test_family_names;
    Alcotest.test_case "customer domain sizes (paper)" `Quick test_customers_domains_match_paper;
    Alcotest.test_case "customer FDs hold when clean" `Quick test_customers_fds_hold_when_clean;
    Alcotest.test_case "customer violation injection" `Quick test_customers_violation_injection;
    Alcotest.test_case "constraints table" `Quick test_constraints_table;
    Alcotest.test_case "university violators" `Quick test_university_violators;
    Alcotest.test_case "university clean" `Quick test_university_zero_violators_clean;
  ]

let () = Registry.register "datagen" suite
