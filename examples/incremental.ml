(* Incremental maintenance (§5.2, Fig. 4b): logical indices are kept
   in sync as the base tables evolve — the scenario the paper's
   introduction motivates ("databases are primarily dynamic").

   A stream of inserts and deletes flows into the customer table; the
   indices absorb each update in microseconds, and the constraint is
   re-validated after every batch, catching the moment a bad tuple
   arrives.

   Run with: dune exec examples/incremental.exe *)

module R = Fcv_relation
module C = Core.Checker

let fd_constraint =
  "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2"

let () =
  let rng = Fcv_util.Rng.create 11 in
  let db = Fcv_datagen.Customers.make_db () in
  let cust, world = Fcv_datagen.Customers.generate rng db ~name:"cust" ~rows:20_000 in
  let index = Core.Index.create db in
  let c = Core.Fol_parser.of_string fd_constraint in
  C.ensure_indices index [ c ];
  let entry = List.hd (Core.Index.entries_for index "cust") in
  Printf.printf "initial: %d rows, index %d nodes\n" (R.Table.cardinality cust)
    (Core.Index.entry_size index entry);

  let by_state = Fcv_datagen.Customers.areas_by_state world in
  let random_clean_row () =
    let zip = Fcv_util.Rng.int rng Fcv_datagen.Customers.n_zip in
    let city = world.Fcv_datagen.Customers.zip_city.(zip) in
    let state = world.Fcv_datagen.Customers.city_state.(city) in
    let candidates = by_state.(state) in
    let areacode =
      if Array.length candidates = 0 then 0 else Fcv_util.Rng.choose rng candidates
    in
    [| areacode; Fcv_util.Rng.int rng Fcv_datagen.Customers.n_number; city; state; zip |]
  in

  (* batches of clean updates, then one poisoned batch *)
  let batches = 5 in
  for batch = 1 to batches do
    let timer = Fcv_util.Timer.create () in
    Fcv_util.Timer.start timer;
    let updates = 1000 in
    for _ = 1 to updates do
      if Fcv_util.Rng.bernoulli rng 0.5 then
        Core.Index.insert index ~table_name:"cust" (random_clean_row ())
      else begin
        let n = R.Table.cardinality cust in
        if n > 0 then begin
          let victim = Array.copy (R.Table.row cust (Fcv_util.Rng.int rng n)) in
          ignore (Core.Index.delete index ~table_name:"cust" victim)
        end
      end
    done;
    (* poison the last batch: one tuple pairing an areacode with a
       second state *)
    if batch = batches then begin
      let row = random_clean_row () in
      let bad_state = (row.(3) + 1) mod Fcv_datagen.Customers.n_state in
      Core.Index.insert index ~table_name:"cust"
        [| row.(0); row.(1); row.(2); bad_state; row.(4) |]
    end;
    Fcv_util.Timer.stop timer;
    let per_update_us = Fcv_util.Timer.elapsed timer /. 1001. *. 1e6 in
    let r = C.check index (Core.Formula.hard c) in
    Printf.printf
      "batch %d: ~%.1f us/update, %d rows, index %d nodes -> areacode->state %s (%.2f ms)\n"
      batch per_update_us (R.Table.cardinality cust)
      (Core.Index.entry_size index entry)
      (match r.C.outcome with C.Satisfied -> "holds" | C.Violated -> "VIOLATED")
      r.C.elapsed_ms
  done;

  match Core.Violations.enumerate ~limit:4 index c with
  | Some ws when ws <> [] ->
    print_endline "offending areacode/state pairs:";
    List.iter
      (fun w ->
        print_endline
          ("  "
          ^ String.concat ", "
              (List.map (fun (x, v) -> x ^ "=" ^ R.Value.to_string v) w)))
      ws
  | _ -> ()
