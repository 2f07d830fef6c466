(** Logical-index store tests: registration, covering lookup, and the
    §5.2 incremental maintenance (insert/delete) staying consistent
    with a from-scratch rebuild. *)

module R = Fcv_relation
module I = Core.Index

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_db seed ~rows =
  let rng = Fcv_util.Rng.create seed in
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "da" 9);
  R.Database.add_domain db (R.Dict.of_int_range "db" 6);
  R.Database.add_domain db (R.Dict.of_int_range "dc" 11);
  let t =
    R.Database.create_table db ~name:"t" ~attrs:[ ("a", "da"); ("b", "db"); ("c", "dc") ]
  in
  for _ = 1 to rows do
    R.Table.insert_coded t
      [| Fcv_util.Rng.int rng 9; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 11 |]
  done;
  (db, t, rng)

let test_add_and_find () =
  let db, _, _ = make_db 1 ~rows:100 in
  let idx = I.create db in
  let full = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  check_int "full arity" 3 (Array.length full.I.attrs);
  let proj = I.add idx ~table_name:"t" ~attrs:[ "a"; "c" ] ~strategy:(Core.Ordering.Fixed [| 0; 1 |]) () in
  check_int "projection arity" 2 (Array.length proj.I.attrs);
  check "find full" true (I.find_covering idx ~table_name:"t" ~needed:[ 0; 1; 2 ] <> None);
  (match I.find_covering idx ~table_name:"t" ~needed:[ 0; 2 ] with
  | Some e -> check "narrowest first is fine" true (Array.length e.I.attrs >= 2)
  | None -> Alcotest.fail "expected covering entry");
  check "no index on unknown table" true (I.find_covering idx ~table_name:"zzz" ~needed:[] = None)

let test_index_contents () =
  let db, t, _ = make_db 2 ~rows:150 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Max_inf_gain () in
  R.Table.iter t (fun row -> check "row indexed" true (I.entry_mem idx e row));
  check "absent row" (R.Table.mem_coded t [| 8; 5; 10 |]) (I.entry_mem idx e [| 8; 5; 10 |])

let test_projection_contents () =
  let db, t, _ = make_db 3 ~rows:150 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~attrs:[ "a"; "b" ] ~strategy:Core.Ordering.Prob_converge () in
  R.Table.iter t (fun row -> check "projected row indexed" true (I.entry_mem idx e [| row.(0); row.(1) |]))

(* maintenance consistency: apply a random workload of inserts and
   deletes through the index, then compare against a rebuilt index *)
let test_maintenance_consistency () =
  let db, t, rng = make_db 4 ~rows:120 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  for _ = 1 to 300 do
    if Fcv_util.Rng.bool rng || R.Table.cardinality t = 0 then
      I.insert idx ~table_name:"t"
        [| Fcv_util.Rng.int rng 9; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 11 |]
    else begin
      let victim = Array.copy (R.Table.row t (Fcv_util.Rng.int rng (R.Table.cardinality t))) in
      ignore (I.delete idx ~table_name:"t" victim)
    end
  done;
  (* rebuild from the mutated base table and compare as sets *)
  let idx2 = I.create db in
  let e2 = I.add idx2 ~table_name:"t" ~strategy:(Core.Ordering.Fixed e.I.order) () in
  let ok = ref true in
  for a = 0 to 8 do
    for b = 0 to 5 do
      for c = 0 to 10 do
        let row = [| a; b; c |] in
        if I.entry_mem idx e row <> I.entry_mem idx2 e2 row then ok := false
      done
    done
  done;
  check "incremental = rebuilt" true !ok

let test_duplicate_aware_deletion () =
  let db, _, _ = make_db 5 ~rows:0 in
  let idx = I.create db in
  let _ = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  let row = [| 1; 2; 3 |] in
  I.insert idx ~table_name:"t" row;
  I.insert idx ~table_name:"t" row;
  let e = List.hd (I.entries_for idx "t") in
  ignore (I.delete idx ~table_name:"t" row);
  check "still present after deleting one of two" true (I.entry_mem idx e row);
  ignore (I.delete idx ~table_name:"t" row);
  check "gone after deleting the second" false (I.entry_mem idx e row)

let test_out_of_domain_growth_rebuilds () =
  let db = R.Database.create () in
  let dict = R.Dict.create "grow" in
  ignore (R.Dict.intern dict (R.Value.Int 0));
  ignore (R.Dict.intern dict (R.Value.Int 1));
  R.Database.add_domain db dict;
  let t = R.Database.create_table db ~name:"g" ~attrs:[ ("x", "grow") ] in
  ignore (R.Table.insert t [| R.Value.Int 0 |]);
  let idx = I.create db in
  let e0 = I.add idx ~table_name:"g" ~strategy:Core.Ordering.Prob_converge () in
  (* interning new values after the index was built: codes 2.. exceed
     the block's one-bit capacity, so the insert must transparently
     rebuild the entry rather than raise or corrupt it *)
  ignore (R.Dict.intern dict (R.Value.Int 2));
  ignore (R.Dict.intern dict (R.Value.Int 3));
  (* the raw single-entry maintenance hook still signals *)
  check "update_entry signals rebuild" true
    (match I.update_entry idx e0 ~insert:true [| 3 |] with
    | exception I.Needs_rebuild _ -> true
    | _ -> false);
  I.insert idx ~table_name:"g" [| 3 |];
  let e = List.hd (I.entries_for idx "g") in
  check "entry replaced" true (e != e0);
  check_int "block widened to the grown domain" 4 e.I.blocks.(0).Fcv_bdd.Fd.dom_size;
  check "new row present" true (I.entry_mem idx e [| 3 |]);
  check "old row retained" true (I.entry_mem idx e [| 0 |]);
  (* incremental maintenance keeps working on the rebuilt entry *)
  check "deletes one occurrence" true (I.delete idx ~table_name:"g" [| 3 |]);
  check "gone after delete" false (I.entry_mem idx e [| 3 |]);
  check_int "base table back to one row" 1 (R.Table.cardinality t)

let test_entry_size_and_build_time () =
  let db, _, _ = make_db 6 ~rows:200 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  check "positive size" true (I.entry_size idx e > 2);
  check "build time recorded" true (e.I.build_time >= 0.)

(* A check that trips the node budget leaves the manager full of its
   dead nodes.  Maintenance must still go through: the update compacts
   once and retries, and the base table and the entry keep agreeing. *)
let university_index ~max_nodes =
  let db, _, _, takes =
    Fcv_datagen.University.generate (Fcv_util.Rng.create 5)
      { Fcv_datagen.University.default with students = 300; courses = 30 }
  in
  let reference =
    Core.Fol_parser.of_string "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))"
  in
  let idx = I.create ~max_nodes db in
  Core.Checker.ensure_indices idx [ reference ];
  (idx, takes, reference)

let test_delete_after_budget_trip () =
  let idx, takes, reference = university_index ~max_nodes:0 in
  let m = I.mgr idx in
  Fcv_bdd.Manager.set_max_nodes m (Fcv_bdd.Manager.size m + 50);
  let r = Core.Checker.check ~strategy:Core.Checker.Auto idx (Core.Formula.hard reference) in
  check "the check tripped" true (r.Core.Checker.method_used <> Core.Checker.Bdd);
  let e = List.hd (I.entries_for idx "takes") in
  let rows = R.Table.to_list takes in
  List.iteri
    (fun i row ->
      if i mod 7 = 0 then begin
        check "delete succeeds" true (I.delete idx ~table_name:"takes" row);
        check "entry agrees with the table" (R.Table.mem_coded takes row)
          (I.entry_mem idx e row)
      end)
    rows;
  List.iteri
    (fun i row ->
      if i mod 7 = 0 then begin
        I.insert idx ~table_name:"takes" row;
        check "re-inserted row indexed" true (I.entry_mem idx e row)
      end)
    rows;
  R.Table.iter takes (fun row -> check "every row indexed" true (I.entry_mem idx e row))

let test_update_over_budget_changes_nothing () =
  let idx, takes, _ = university_index ~max_nodes:0 in
  Fcv_bdd.Manager.set_max_nodes (I.mgr idx) 1;
  let e = List.hd (I.entries_for idx "takes") in
  let row = R.Table.row takes 0 in
  let card = R.Table.cardinality takes in
  (match I.delete idx ~table_name:"takes" row with
  | _ -> Alcotest.fail "expected Over_budget"
  | exception I.Over_budget _ -> ());
  check_int "table unchanged" card (R.Table.cardinality takes);
  check "row still in the table" true (R.Table.mem_coded takes row);
  check "row still indexed" true (I.entry_mem idx e row);
  let rec fresh c = if R.Table.mem_coded takes [| 0; c |] then fresh (c + 1) else [| 0; c |] in
  let fresh = fresh 0 in
  (match I.insert idx ~table_name:"takes" fresh with
  | () -> Alcotest.fail "expected Over_budget"
  | exception I.Over_budget _ -> ());
  check_int "table unchanged after insert" card (R.Table.cardinality takes);
  check "fresh row not indexed" false (I.entry_mem idx e fresh);
  (* with room again, the same delete goes through *)
  Fcv_bdd.Manager.set_max_nodes (I.mgr idx) 0;
  check "delete succeeds" true (I.delete idx ~table_name:"takes" row);
  check "entry agrees with the table" (R.Table.mem_coded takes row) (I.entry_mem idx e row)

let suite =
  [
    Alcotest.test_case "add and find" `Quick test_add_and_find;
    Alcotest.test_case "index contents" `Quick test_index_contents;
    Alcotest.test_case "projection contents" `Quick test_projection_contents;
    Alcotest.test_case "maintenance consistency" `Quick test_maintenance_consistency;
    Alcotest.test_case "duplicate-aware deletion" `Quick test_duplicate_aware_deletion;
    Alcotest.test_case "domain growth rebuilds in place" `Quick
      test_out_of_domain_growth_rebuilds;
    Alcotest.test_case "entry size / build time" `Quick test_entry_size_and_build_time;
    Alcotest.test_case "delete after a budget trip" `Quick test_delete_after_budget_trip;
    Alcotest.test_case "update over budget changes nothing" `Quick
      test_update_over_budget_changes_nothing;
  ]

let () = Registry.register "index" suite
