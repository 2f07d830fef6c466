(** Repair-planner tests: the restrict-and-count primitives it is
    built on, determinism of witness enumeration, minimality of the
    exact planner on the tractable FD classes (cross-checked against
    the brute-force reference), greedy quality bounds, and the
    repair-then-validate property — a complete plan, applied, leaves
    zero violations by the naive ground truth. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Sat = Fcv_bdd.Sat
module V = Core.Violations
module Rp = Fcv_repair.Repair

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fol = Core.Fol_parser.of_string

(* -- the counting primitives ------------------------------------------------ *)

(* count_over replaces dividing Sat.count by 2^(unused vars): over any
   level superset of the support, the two agree. *)
let test_count_over () =
  let m = M.create ~nvars:8 () in
  let f = O.band m (M.ithvar m 2) (M.ithvar m 5) in
  let per_levels levels = Sat.count_over m f ~levels in
  check "support only" true (per_levels [| 2; 5 |] = 1.);
  check "superset pads by 2^extra" true (per_levels [| 0; 2; 5; 7 |] = 4.);
  check "full space matches count" true
    (per_levels [| 0; 1; 2; 3; 4; 5; 6; 7 |] = Sat.count m f);
  check "terminals" true
    (Sat.count_over m M.one ~levels:[| 1; 3 |] = 4.
    && Sat.count_over m M.zero ~levels:[| 1; 3 |] = 0.)

let test_count_restrict () =
  let m = M.create ~nvars:8 () in
  let exact n = Option.get (Fcv_bdd.Nat.to_int_opt n) in
  let f = O.band m (M.ithvar m 2) (M.ithvar m 5) in
  (* cofactor on x2=1: x5 pinned by f, x0/x7 free *)
  check "positive cofactor" true
    (exact (Sat.count_restrict_exact m f ~fix:[ (2, true) ] ~levels:[| 0; 5; 7 |]) = 4);
  check "negative cofactor is empty" true
    (exact (Sat.count_restrict_exact m f ~fix:[ (2, false) ] ~levels:[| 0; 5; 7 |]) = 0);
  check "fixing the whole support" true
    (exact (Sat.count_restrict_exact m f ~fix:[ (2, true); (5, true) ] ~levels:[| 0 |]) = 2);
  check "conflicting fixes rejected" true
    (match Sat.count_restrict_exact m f ~fix:[ (2, true); (2, false) ] ~levels:[| 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Kill counts beyond 2^53.  Over 56 levels, root = x0 ∨ (x1 ∧ x2 ∧ …
   ∧ x55): fixing x0 leaves 2^55 models, fixing x1 leaves 2^54 + 1 (x0
   free, or the one point), fixing both leaves 2^54 — so the union of
   the two fixes holds exactly 2^55 + 1 models.  Summing the signed
   terms in float, as the kill count once did, rounds the 2^54 + 1
   term to 2^54 and loses the +1; a rival candidate killing exactly
   2^55 then ties, and greedy's tiebreak may pick the smaller kill.
   The exact union count keeps the unit and ranks the two. *)
let test_kill_count_beyond_float () =
  let module N = Fcv_bdd.Nat in
  let m = M.create ~nvars:56 () in
  let point =
    List.fold_left (fun acc i -> O.band m acc (M.ithvar m i)) M.one (List.init 54 (fun i -> i + 2))
  in
  let root = O.bor m (M.ithvar m 0) (O.band m (M.ithvar m 1) point) in
  let levels = Array.init 56 Fun.id in
  let fixes = [ [ (0, true) ]; [ (1, true) ] ] in
  let kills = Sat.count_union_exact m root ~fixes ~levels in
  Alcotest.(check string) "union holds 2^55 + 1" "36028797018963969" (N.to_string kills);
  (* the old arithmetic: each term rounded to float, signs summed *)
  let term fix =
    let free = Array.of_list (List.filter (fun l -> not (List.mem_assoc l fix)) (Array.to_list levels)) in
    N.to_float (Sat.count_restrict_exact m root ~fix ~levels:free)
  in
  let float_kills = term [ (0, true) ] +. term [ (1, true) ] -. term [ (0, true); (1, true) ] in
  check "float terms lose the +1" true (float_kills = ldexp 1. 55);
  let rival = Sat.count_union_exact m (M.ithvar m 0) ~fixes ~levels in
  Alcotest.(check string) "rival kills 2^55" "36028797018963968" (N.to_string rival);
  check "float scores tie" true (float_kills = N.to_float rival);
  check "exact scores rank the +1 first" true (N.compare kills rival > 0)

(* -- deterministic enumeration ---------------------------------------------- *)

let test_enumerate_deterministic () =
  let db = Gen.random_db 11 in
  let index = Core.Index.create db in
  let c = fol "forall x1_1 . t(x1_1) -> (exists x2_1 . r(x1_1, x2_1))" in
  Core.Checker.ensure_indices index [ c ];
  match V.enumerate index c with
  | None -> Alcotest.fail "expected witnesses for a universal constraint"
  | Some ws ->
    check "two enumerations agree" true (V.enumerate index c = Some ws);
    check "witnesses sorted by decoded value" true (List.sort compare ws = ws);
    (match V.count index c with
    | Some n -> check_int "count matches enumeration" (List.length ws) (int_of_float n)
    | None -> Alcotest.fail "count disagreed about witnessability")

(* -- exact vs brute on tractable FD instances ------------------------------- *)

(* products(product_id, category, brand) with the FD brand ->
   category; random small instances, distinct rows. *)
let products_db seed rows =
  let rng = Fcv_util.Rng.create seed in
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "product_id" rows);
  R.Database.add_domain db (R.Dict.of_int_range "category" 3);
  R.Database.add_domain db (R.Dict.of_int_range "brand" 3);
  let t =
    R.Database.create_table db ~name:"products"
      ~attrs:[ ("product_id", "product_id"); ("category", "category"); ("brand", "brand") ]
  in
  for p = 0 to rows - 1 do
    R.Table.insert_coded t [| p; Fcv_util.Rng.int rng 3; Fcv_util.Rng.int rng 3 |]
  done;
  db

let brand_fd = "forall b, c1, c2 . products(_, c1, b) and products(_, c2, b) -> c1 = c2"

(* The dichotomy's tractable side, checked against the exhaustive
   minimum: on every instance the exact plan has brute's cardinality,
   is complete, and — applied — validates clean under the naive
   evaluator. *)
let test_exact_matches_brute () =
  let fd = fol brand_fd in
  for seed = 0 to 11 do
    let db = products_db seed (6 + (seed mod 7)) in
    let exact = Rp.plan ~strategy:Rp.Exact db [ fd ] in
    let brute = Rp.plan ~strategy:Rp.Brute db [ fd ] in
    check
      (Printf.sprintf "seed %d: exact is minimum (%d vs brute %d)" seed
         (List.length exact.Rp.deletions)
         (List.length brute.Rp.deletions))
      true
      (List.length exact.Rp.deletions = List.length brute.Rp.deletions);
    check (Printf.sprintf "seed %d: exact complete" seed) true exact.Rp.complete;
    let scratch = Rp.clone_db db in
    check_int
      (Printf.sprintf "seed %d: every planned deletion applies" seed)
      (List.length exact.Rp.deletions)
      (Rp.apply_to exact scratch);
    check
      (Printf.sprintf "seed %d: applied exact plan validates clean" seed)
      true
      (Core.Naive_eval.holds scratch fd)
  done

let test_greedy_quality () =
  let fd = fol brand_fd in
  for seed = 0 to 11 do
    let db = products_db seed (6 + (seed mod 7)) in
    let greedy = Rp.plan ~strategy:Rp.Greedy db [ fd ] in
    let brute = Rp.plan ~strategy:Rp.Brute db [ fd ] in
    check (Printf.sprintf "seed %d: greedy complete" seed) true greedy.Rp.complete;
    check
      (Printf.sprintf "seed %d: greedy (%d) within 2x of optimal (%d)" seed
         (List.length greedy.Rp.deletions)
         (List.length brute.Rp.deletions))
      true
      (List.length greedy.Rp.deletions <= 2 * List.length brute.Rp.deletions)
  done

(* lhs-chain FD sets are still tractable: {brand} and
   {brand, category} chain under inclusion. *)
let test_exact_lhs_chain () =
  let fds =
    [
      fol brand_fd;
      fol
        "forall b, c, p1, p2 . products(p1, c, b) and products(p2, c, b) -> p1 = p2";
    ]
  in
  for seed = 0 to 5 do
    let db = products_db seed 7 in
    let exact = Rp.plan ~strategy:Rp.Exact db fds in
    let brute = Rp.plan ~strategy:Rp.Brute db fds in
    check
      (Printf.sprintf "seed %d: chain exact is minimum" seed)
      true
      (List.length exact.Rp.deletions = List.length brute.Rp.deletions);
    let scratch = Rp.clone_db db in
    ignore (Rp.apply_to exact scratch);
    check
      (Printf.sprintf "seed %d: chain plan validates clean" seed)
      true
      (List.for_all (fun f -> Core.Naive_eval.holds scratch f) fds)
  done

let test_exact_refuses_intractable () =
  let db = products_db 3 8 in
  let non_chain =
    [
      fol brand_fd;
      (* lhs {category} does not chain with lhs {brand} *)
      fol "forall c, b1, b2 . products(_, c, b1) and products(_, c, b2) -> b1 = b2";
    ]
  in
  check "non-chain FD set refused" true
    (match Rp.plan ~strategy:Rp.Exact db non_chain with
    | exception Rp.Not_tractable _ -> true
    | _ -> false);
  let db2 = Gen.random_db 5 in
  check "non-FD constraint refused" true
    (match
       Rp.plan ~strategy:Rp.Exact db2
         [ fol "forall x1_1 . t(x1_1) -> (exists x2_1 . r(x1_1, x2_1))" ]
     with
    | exception Rp.Not_tractable _ -> true
    | _ -> false)

(* -- repair then validate --------------------------------------------------- *)

(* Deletion-repairable constraint suite over the shared random schema:
   two referential rules and an FD.  Every violation has deletable
   positive support, so greedy must terminate complete; applying the
   plan must leave zero violations by the naive ground truth; and
   planning must never touch the input database. *)
let repairable_suite =
  List.map fol
    [
      "forall x1_1, x2_1 . r(x1_1, x2_1) -> (exists x3_1 . s(x2_1, x3_1))";
      "forall x1_1 . t(x1_1) -> (exists x2_1 . r(x1_1, x2_1))";
      "forall x1_1, x2_1, x2_2 . r(x1_1, x2_1) and r(x1_1, x2_2) -> x2_1 = x2_2";
    ]

let cardinalities db =
  List.map
    (fun n -> (n, R.Table.cardinality (R.Database.table db n)))
    (R.Database.table_names db)

let prop_repair_then_validate =
  QCheck.Test.make ~count:60 ~name:"greedy repair then validate finds zero violations"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let db = Gen.random_db seed in
      let before = cardinalities db in
      let plan = Rp.plan ~strategy:Rp.Greedy db repairable_suite in
      let scratch = Rp.clone_db db in
      ignore (Rp.apply_to plan scratch);
      plan.Rp.complete
      && cardinalities db = before
      && List.for_all (fun f -> Core.Naive_eval.holds scratch f) repairable_suite)

(* max_deletions is a hard cap and a capped plan owns up to it. *)
let test_budget () =
  let fd = fol brand_fd in
  let db = products_db 1 10 in
  let full = Rp.plan ~strategy:Rp.Greedy db [ fd ] in
  if List.length full.Rp.deletions >= 2 then begin
    let capped = Rp.plan ~strategy:Rp.Greedy ~max_deletions:1 db [ fd ] in
    check_int "cap respected" 1 (List.length capped.Rp.deletions);
    check "capped plan is incomplete" false capped.Rp.complete
  end

(* -- wire format ------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let module P = Fcv_server.Protocol in
  let reqs =
    [
      P.Repair { strategy = "greedy"; max_deletions = None; apply = false };
      P.Repair { strategy = "exact"; max_deletions = Some 4; apply = true };
    ]
  in
  List.iter
    (fun req ->
      match P.parse_request (P.request_to_line req) with
      | Ok (None, parsed) -> check "round-trips" true (parsed = req)
      | _ -> Alcotest.fail "repair request did not round-trip")
    reqs;
  check "repair is unlogged" false
    (P.logged (P.Repair { strategy = "greedy"; max_deletions = None; apply = true }));
  check "defaults: greedy, plan-only" true
    (match P.parse_request {|{"op":"repair"}|} with
    | Ok (None, P.Repair { strategy = "greedy"; max_deletions = None; apply = false }) ->
      true
    | _ -> false);
  check "unknown strategy rejected" true
    (match P.parse_request {|{"op":"repair","strategy":"oracle"}|} with
    | Error (P.Bad_request, _) -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "count_over" `Quick test_count_over;
    Alcotest.test_case "count_restrict" `Quick test_count_restrict;
    Alcotest.test_case "kill counts stay exact beyond 2^53" `Quick test_kill_count_beyond_float;
    Alcotest.test_case "enumerate is deterministic and sorted" `Quick
      test_enumerate_deterministic;
    Alcotest.test_case "exact matches brute-force minimum" `Quick test_exact_matches_brute;
    Alcotest.test_case "greedy within 2x of optimal" `Quick test_greedy_quality;
    Alcotest.test_case "exact handles lhs-chain FD sets" `Quick test_exact_lhs_chain;
    Alcotest.test_case "exact refuses the NP-hard side" `Quick test_exact_refuses_intractable;
    Gen.qcheck_case prop_repair_then_validate;
    Alcotest.test_case "deletion budget" `Quick test_budget;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
  ]

let () = Registry.register "repair" suite
