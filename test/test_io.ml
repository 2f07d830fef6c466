(** Serialisation tests: BDD save/load round-trips and logical-index
    persistence. *)

module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module R = Fcv_relation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_bdd_roundtrip () =
  let m = M.create ~nvars:8 () in
  let f =
    O.bor m
      (O.band m (M.ithvar m 0) (M.nithvar m 3))
      (O.bxor m (M.ithvar m 5) (M.ithvar m 7))
  in
  let g = O.bimp m f (M.ithvar m 2) in
  let path = Filename.temp_file "fcv" ".bdd" in
  Fcv_bdd.Io.save_file m ~roots:[ f; g; M.zero; M.one ] path;
  let m2 = M.create ~nvars:8 () in
  (match Fcv_bdd.Io.load_file m2 path with
  | [ f'; g'; z'; o' ] ->
    check "terminals preserved" true (z' = M.zero && o' = M.one);
    check_int "same node count f" (M.node_count m f) (M.node_count m2 f');
    (* semantic equality on all assignments *)
    let ok = ref true in
    for mask = 0 to 255 do
      let env = Array.init 8 (fun i -> (mask lsr i) land 1 = 1) in
      if M.eval m f env <> M.eval m2 f' env then ok := false;
      if M.eval m g env <> M.eval m2 g' env then ok := false
    done;
    check "same semantics" true !ok
  | _ -> Alcotest.fail "wrong root count");
  Sys.remove path

let test_bdd_load_into_populated_manager () =
  (* loading must hash-cons against existing nodes *)
  let m = M.create ~nvars:4 () in
  let f = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  let path = Filename.temp_file "fcv" ".bdd" in
  Fcv_bdd.Io.save_file m ~roots:[ f ] path;
  let m2 = M.create ~nvars:4 () in
  let pre = O.band m2 (M.ithvar m2 0) (M.ithvar m2 1) in
  (match Fcv_bdd.Io.load_file m2 path with
  | [ f' ] -> check "deduplicated against existing" true (f' = pre)
  | _ -> Alcotest.fail "wrong root count");
  Sys.remove path

let test_bdd_rejects_garbage () =
  let path = Filename.temp_file "fcv" ".bdd" in
  let oc = open_out path in
  output_string oc "not a bdd file\n";
  close_out oc;
  let m = M.create ~nvars:2 () in
  check "bad magic rejected" true
    (match Fcv_bdd.Io.load_file m path with
    | exception Fcv_bdd.Io.Format_error _ -> true
    | _ -> false);
  Sys.remove path

let test_index_roundtrip () =
  let rng = Fcv_util.Rng.create 33 in
  let db = Fcv_datagen.Customers.make_db () in
  let table, _ = Fcv_datagen.Customers.generate rng db ~name:"cust" ~rows:2000 in
  let index = Core.Index.create db in
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "areacode"; "city"; "state" ]
       ~strategy:Core.Ordering.Prob_converge ());
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "city"; "state"; "zipcode" ]
       ~strategy:Core.Ordering.Prob_converge ());
  let path = Filename.temp_file "fcv" ".idx" in
  Core.Index_io.save_file index path;
  let index2 = Core.Index_io.load_file db path in
  check_int "both entries restored" 2 (List.length (Core.Index.entries index2));
  (* restored indices answer membership identically *)
  let e1 = List.nth (Core.Index.entries index) 0 in
  let e1' =
    List.find
      (fun e -> e.Core.Index.attrs = e1.Core.Index.attrs)
      (Core.Index.entries index2)
  in
  let ok = ref true in
  R.Table.iter table (fun row ->
      let sub = Array.map (fun a -> row.(a)) e1.Core.Index.attrs in
      if not (Core.Index.entry_mem index2 e1' sub) then ok := false);
  check "restored entry contains all rows" true !ok;
  check_int "same size" (Core.Index.entry_size index e1) (Core.Index.entry_size index2 e1');
  (* maintenance still works after load *)
  let fresh = Array.copy (R.Table.row table 0) in
  ignore (Core.Index.delete index2 ~table_name:"cust" fresh);
  Core.Index.insert index2 ~table_name:"cust" fresh;
  check "maintenance after load" true
    (Core.Index.entry_mem index2 e1' (Array.map (fun a -> fresh.(a)) e1'.Core.Index.attrs));
  (* the checker runs against a loaded store *)
  let c =
    Core.Fol_parser.of_string
      "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2"
  in
  let r = Core.Checker.check index2 (Core.Formula.hard c) in
  let r0 = Core.Checker.check index (Core.Formula.hard c) in
  check "loaded store agrees with original" true (r.Core.Checker.outcome = r0.Core.Checker.outcome);
  Sys.remove path

let test_index_domain_drift () =
  let db = R.Database.create () in
  let dict = R.Dict.of_int_range "d" 4 in
  R.Database.add_domain db dict;
  let t = R.Database.create_table db ~name:"t" ~attrs:[ ("x", "d") ] in
  R.Table.insert_coded t [| 1 |];
  let index = Core.Index.create db in
  ignore (Core.Index.add index ~table_name:"t" ~strategy:Core.Ordering.Prob_converge ());
  let path = Filename.temp_file "fcv" ".idx" in
  Core.Index_io.save_file index path;
  (* growth since the save is fine: the entry is restored at its saved
     width and rebuilds on its first out-of-capacity update, exactly
     as it would have live *)
  for i = 4 to 40 do
    ignore (R.Dict.intern dict (R.Value.Int i))
  done;
  let index2 = Core.Index_io.load_file db path in
  let e = List.hd (Core.Index.entries index2) in
  check_int "saved width restored" 4 e.Core.Index.blocks.(0).Fcv_bdd.Fd.dom_size;
  check "membership intact" true (Core.Index.entry_mem index2 e [| 1 |]);
  Core.Index.insert index2 ~table_name:"t" [| 9 |];
  let e' = List.hd (Core.Index.entries_for index2 "t") in
  check "out-of-capacity update rebuilds the loaded entry" true
    (Core.Index.entry_mem index2 e' [| 9 |]);
  (* a dictionary SMALLER than a saved domain means different data *)
  let db2 = R.Database.create () in
  R.Database.add_domain db2 (R.Dict.of_int_range "d" 2);
  let _ = R.Database.create_table db2 ~name:"t" ~attrs:[ ("x", "d") ] in
  check "shrunken domain rejected" true
    (match Core.Index_io.load_file db2 path with
    | exception Core.Index_io.Format_error _ -> true
    | _ -> false);
  Sys.remove path

let test_manager_compact () =
  let m = M.create ~nvars:8 () in
  (* create garbage: chain of intermediates, keep only the last *)
  let f = ref (M.ithvar m 0) in
  for i = 1 to 7 do
    f := O.bxor m !f (M.ithvar m i)
  done;
  let keep = O.band m !f (M.ithvar m 3) in
  let size_before = M.size m in
  (match M.compact m [ keep ] with
  | [ keep' ] ->
    check "store shrank" true (M.size m < size_before);
    check "store = live nodes" true (M.size m = M.node_count m keep');
    (* semantics preserved *)
    let ok = ref true in
    for mask = 0 to 255 do
      let env = Array.init 8 (fun i -> (mask lsr i) land 1 = 1) in
      let expected =
        env.(3)
        && List.fold_left (fun acc i -> acc <> env.(i)) false [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      if M.eval m keep' env <> expected then ok := false
    done;
    check "semantics preserved" true !ok;
    (* the manager is still fully usable after compaction *)
    let g = O.bor m keep' (M.ithvar m 7) in
    check "operations still work" true (M.node_count m g > 0)
  | _ -> Alcotest.fail "wrong root count")

let test_index_compact () =
  let rng = Fcv_util.Rng.create 55 in
  let db = Fcv_datagen.Customers.make_db () in
  let table, _ = Fcv_datagen.Customers.generate rng db ~name:"cust" ~rows:1500 in
  let index = Core.Index.create db in
  let e =
    Core.Index.add index ~table_name:"cust" ~attrs:[ "areacode"; "state" ]
      ~strategy:Core.Ordering.Prob_converge ()
  in
  (* churn: updates create dead intermediate roots *)
  for i = 0 to 200 do
    let row = Array.copy (R.Table.row table (i mod R.Table.cardinality table)) in
    ignore (Core.Index.delete index ~table_name:"cust" row);
    Core.Index.insert index ~table_name:"cust" row
  done;
  let reclaimed = Core.Index.compact index in
  check "reclaimed something" true (reclaimed > 0);
  (* index answers unchanged *)
  let ok = ref true in
  R.Table.iter table (fun row ->
      if not (Core.Index.entry_mem index e [| row.(0); row.(3) |]) then ok := false);
  check "entries intact after compaction" true !ok;
  (* checking still works *)
  let c =
    Core.Fol_parser.of_string
      "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2"
  in
  ignore (Core.Checker.check index (Core.Formula.hard c))

(* property: save/load/compact all preserve semantics of random BDDs *)
let prop_io_compact_roundtrip =
  QCheck.Test.make ~count:80 ~name:"save/load and compact preserve random BDDs"
    (QCheck.pair (Test_bdd.bexp_arb 6) (Test_bdd.bexp_arb 6))
    (fun (e1, e2) ->
      let m = M.create ~nvars:6 () in
      let f = Test_bdd.build_bexp m e1 in
      let g = Test_bdd.build_bexp m e2 in
      let path = Filename.temp_file "fcv" ".bdd" in
      Fcv_bdd.Io.save_file m ~roots:[ f; g ] path;
      let m2 = M.create ~nvars:6 () in
      let loaded = Fcv_bdd.Io.load_file m2 path in
      Sys.remove path;
      let compacted = M.compact m [ f; g ] in
      match (loaded, compacted) with
      | [ f1; g1 ], [ f2; g2 ] ->
        List.for_all
          (fun env ->
            let expect_f = Test_bdd.eval_bexp env e1 in
            let expect_g = Test_bdd.eval_bexp env e2 in
            M.eval m2 f1 env = expect_f
            && M.eval m2 g1 env = expect_g
            && M.eval m f2 env = expect_f
            && M.eval m g2 env = expect_g)
          (Test_bdd.all_envs 6)
      | _ -> false)

(* Round-trip parity after a mixed update stream: run inserts/deletes
   (including domain growth, so an entry is rebuilt, and a check, so
   scratch blocks occupy manager levels), save the index store and the
   database, reload both into a completely fresh database handle, and
   every constraint must answer identically.  This pins down the
   variable renumbering in Index_io.save: the live manager's level
   space has gaps (dead blocks of the rebuilt entry, scratch), the
   reloaded one is compact. *)
let test_index_parity_after_stream () =
  let db, _, _, _ =
    Fcv_datagen.University.generate (Fcv_util.Rng.create 11)
      { Fcv_datagen.University.default with students = 60; courses = 15; takes_per_student = 2 }
  in
  let index = Core.Index.create db in
  let mon = Core.Monitor.create index in
  let sources =
    [
      "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))";
      "forall s, c . takes(s, c) -> (exists a . course(c, a))";
    ]
  in
  List.iter (fun s -> ignore (Core.Monitor.add mon s)) sources;
  ignore (Core.Monitor.validate mon);
  (* mixed stream *)
  for i = 0 to 149 do
    let row = [| i mod 60; i mod 15 |] in
    if i mod 3 = 2 then ignore (Core.Monitor.delete mon ~table_name:"takes" row)
    else Core.Monitor.insert mon ~table_name:"takes" row
  done;
  (* domain growth: course code 15 is new, the takes entry rebuilds *)
  let course_dict = R.Database.domain db "course_id" in
  let fresh_course = R.Dict.intern course_dict (R.Value.Int 999) in
  Core.Monitor.insert mon ~table_name:"takes" [| 7; fresh_course |];
  ignore (Core.Monitor.delete mon ~table_name:"course" [| 3; 3 |]);
  ignore (Core.Monitor.validate mon);
  let outcomes m =
    List.map (fun r -> (r.Core.Monitor.constraint_.Core.Monitor.id, r.Core.Monitor.outcome))
      (Core.Monitor.validate m)
    |> List.sort compare
  in
  let expected = outcomes mon in
  check "stream produced a violation" true
    (List.exists (fun (_, o) -> o = Core.Checker.Violated) expected);
  (* save, then reload against a FRESH database handle *)
  let db_buf = Buffer.create 4096 in
  let idx_path = Filename.temp_file "fcv" ".idx" in
  Fcv_server.State.save_db db db_buf;
  Core.Index_io.save_file index idx_path;
  let db' = Fcv_server.State.load_db (Buffer.contents db_buf) in
  let index' = Core.Index_io.load_file db' idx_path in
  let mon' = Core.Monitor.create index' in
  List.iter (fun s -> ignore (Core.Monitor.add mon' s)) sources;
  check "parity on a fresh database handle" true (outcomes mon' = expected);
  (* maintenance parity continues after the reload *)
  Core.Monitor.insert mon ~table_name:"takes" [| 9; 4 |];
  Core.Monitor.insert mon' ~table_name:"takes" [| 9; 4 |];
  ignore (Core.Monitor.delete mon ~table_name:"course" [| 4; 4 |]);
  ignore (Core.Monitor.delete mon' ~table_name:"course" [| 4; 4 |]);
  check "parity after further updates" true (outcomes mon' = outcomes mon);
  Sys.remove idx_path

let suite =
  [
    Alcotest.test_case "manager compact" `Quick test_manager_compact;
    QCheck_alcotest.to_alcotest prop_io_compact_roundtrip;
    Alcotest.test_case "index compact" `Quick test_index_compact;
    Alcotest.test_case "bdd roundtrip" `Quick test_bdd_roundtrip;
    Alcotest.test_case "bdd load dedup" `Quick test_bdd_load_into_populated_manager;
    Alcotest.test_case "bdd rejects garbage" `Quick test_bdd_rejects_garbage;
    Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
    Alcotest.test_case "index domain drift" `Quick test_index_domain_drift;
    Alcotest.test_case "index stream parity on fresh db" `Quick test_index_parity_after_stream;
  ]

let () = Registry.register "io" suite
