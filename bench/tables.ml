(** Experiments E15–E16: Table 1 (variable-ordering gain on five
    constraint-checking queries) and Table 2 (time to fill the BDD
    node budget — the §4 thresholding overhead). *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
open Bench_util

(* -- Table 1 ------------------------------------------------------------------ *)

(* Synthetic database: a structured 5-attribute 1-PROD relation t1
   (where ordering matters), two join tables t2(a0, a1), t3(a1, a2)
   and a rule table c1(a0, a1). *)
let make_db () =
  let rng = Fcv_util.Rng.create 1234 in
  let db = Fcv_datagen.Synth.make_db ~attrs:5 ~dom:100 in
  let t1 =
    Fcv_datagen.Synth.generate rng db ~name:"t1" ~attrs:5 ~dom:100 ~rows:synth_rows
      ~family:(Fcv_datagen.Synth.Prod 1)
  in
  let t2 = R.Database.create_table db ~name:"t2" ~attrs:[ ("x", "d0"); ("y", "d1") ] in
  let t3 = R.Database.create_table db ~name:"t3" ~attrs:[ ("y", "d1"); ("z", "d2") ] in
  let c1 = R.Database.create_table db ~name:"c1" ~attrs:[ ("x", "d0"); ("y", "d1") ] in
  (* t2/t3: projections of t1's first attributes plus noise, so Q4/Q5
     joins have realistic hit rates *)
  R.Table.iter t1 (fun rowx ->
      if Fcv_util.Rng.bernoulli rng 0.1 then begin
        R.Table.insert_coded t2 [| rowx.(0); rowx.(1) |];
        R.Table.insert_coded t3 [| rowx.(1); rowx.(2) |]
      end);
  for _ = 1 to 2_000 do
    R.Table.insert_coded t2 [| Fcv_util.Rng.int rng 100; Fcv_util.Rng.int rng 100 |];
    R.Table.insert_coded t3 [| Fcv_util.Rng.int rng 100; Fcv_util.Rng.int rng 100 |]
  done;
  (* c1 allows most observed t2 pairs *)
  R.Table.iter t2 (fun row ->
      if not (Fcv_util.Rng.bernoulli rng 0.001) then
        R.Table.insert_coded c1 (Array.copy row));
  db

let queries =
  [
    ("Q1 membership", "forall x, y . t2(x, y) -> c1(x, y)");
    ("Q2 implication", "forall y . t1(0, y, _, _, _) -> y in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}");
    ("Q3 fd", "forall x, y1, y2 . t2(x, y1) and t2(x, y2) -> y1 = y2");
    ("Q4 join-exists", "forall x, y . t2(x, y) -> (exists z . t3(y, z))");
    ("Q5 multi-join", "forall x, y, z . t2(x, y) and t3(y, z) -> t1(x, y, z, _, _)");
  ]

let table1 () =
  section "Table 1: variable-ordering gain (ms per constraint check)";
  let db = make_db () in
  let parsed = List.map (fun (n, s) -> (n, Core.Fol_parser.of_string s)) queries in
  let build strategy =
    let index = Core.Index.create db in
    Core.Checker.ensure_indices ~strategy index (List.map snd parsed);
    index
  in
  let optimized = build Core.Ordering.Prob_converge in
  let random = build (Core.Ordering.Random_order 3) in
  let check index ?pipeline c =
    let reset () = M.clear_caches (Core.Index.mgr index) in
    time_ms ~reset (fun () -> ignore (Core.Checker.check ?pipeline index (Core.Formula.hard c)))
  in
  let mgr_opt = Core.Index.mgr optimized in
  row "%-16s %10s %14s %14s %16s %8s %12s\n" "query" "SQL" "BDD: random" "BDD: optimized"
    "BDD: no-rewrite" "hit%" "peak nodes";
  List.iter
    (fun (name, c) ->
      let sql = time_ms (fun () -> ignore (Core.Checker.check_sql db c)) in
      let bdd_rand = check random c in
      let before = M.stats mgr_opt in
      let bdd_opt = check optimized c in
      let after = M.stats mgr_opt in
      let bdd_norw = check optimized ~pipeline:Core.Checker.naive_pipeline c in
      row "%-16s %10.1f %14.1f %14.1f %16.1f %7.1f%% %12d\n" name sql bdd_rand bdd_opt
        bdd_norw
        (100. *. M.cache_hit_rate ~before after)
        after.M.peak_nodes)
    parsed;
  kernel_note mgr_opt;
  (* index size context *)
  let sizes index =
    List.map
      (fun e -> Printf.sprintf "%s=%d" (R.Table.name e.Core.Index.table) (Core.Index.entry_size index e))
      (Core.Index.entries index)
  in
  row "  random-order index nodes:    %s\n" (String.concat " " (sizes random));
  row "  optimized-order index nodes: %s\n" (String.concat " " (sizes optimized));
  paper_note "paper (ms): SQL 1778-4234; BDD random 1113-2347; BDD optimized 240-1041";
  paper_note "random ordering gains ~2x over SQL; Prob-Converge ordering 4-6x";
  paper_note "the no-rewrite column is our ablation of the Section 4.4 pipeline"

(* -- Table 2 ------------------------------------------------------------------- *)

(* Adversarial workload: the equality of two w-bit blocks with REVERSED
   bit pairing under a blocked order has a BDD exponential in w — node
   count roughly doubles per conjunct, so any budget fills quickly. *)
let fill_budget budget =
  let mgr = M.create ~nvars:0 ~max_nodes:budget () in
  let w = 26 in
  let x = Fd.alloc mgr ~name:"x" ~dom_size:(1 lsl w) in
  let y = Fd.alloc mgr ~name:"y" ~dom_size:(1 lsl w) in
  let t0 = Fcv_util.Timer.now () in
  (match
     let acc = ref M.one in
     for i = 0 to w - 1 do
       let xi = M.ithvar mgr x.Fd.levels.(i) in
       let yi = M.ithvar mgr y.Fd.levels.(w - 1 - i) in
       acc := O.band mgr !acc (O.biff mgr xi yi)
     done;
     !acc
   with
  | _ -> failwith "Table 2: budget was never exceeded — increase the hard formula's width"
  | exception M.Node_limit _ -> ());
  let s = M.stats mgr in
  (Fcv_util.Timer.now () -. t0, s.M.peak_nodes, s.M.budget_trips)

let table2 () =
  section "Table 2: time to fill the BDD node budget (thresholding overhead)";
  row "%-14s %12s %12s %8s\n" "budget (nodes)" "time (s)" "peak nodes" "trips";
  List.iter
    (fun b ->
      let t, peak, trips = fill_budget b in
      row "%-14d %12.2f %12d %8d\n" b t peak trips)
    thresholds;
  paper_note "paper: 10^3 -> 2.0s, 10^5 -> 2.2s, 10^6 -> 3.5s, 10^7 -> 17s";
  paper_note
    "(the paper's floor of ~2s is BuDDy's fixed start-up/allocation cost; ours \
     allocates lazily, so small budgets fill almost instantly — the SHAPE, \
     slow growth until ~10^6 then a jump, is what matters)";
  paper_note
    "when the budget trips, the checker falls back to SQL; against violation \
     queries of 100-250s the abort overhead is 1-3%%"

let all () =
  table1 ();
  table2 ()
