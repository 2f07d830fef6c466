(* Self-tests of the benchmark's own machinery: the tail rule, seed
   determinism of the request stream, and the oracle against the naive
   evaluator on a tiny instance.  Runs under `dune test`. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let tail_rule () =
  check "tail: undefined below 11 samples" (Bstats.tail (List.init 10 float_of_int) = None);
  (match Bstats.tail (List.init 11 (fun i -> float_of_int (i + 1))) with
  | Some t -> check "tail: 11 samples give the smallest, 10 beyond it" (t.Bstats.value = 1. && t.Bstats.n = 11)
  | None -> check "tail: 11 samples" false);
  (match Bstats.tail (List.rev (List.init 100 (fun i -> float_of_int (i + 1)))) with
  | Some t ->
    check "tail: 100 samples give p90 = 90, unsorted input" (t.Bstats.value = 90. && t.Bstats.pct = 90.)
  | None -> check "tail: 100 samples" false);
  (match Bstats.tail (List.init 1000 (fun i -> if i < 11 then 1000. else 1.)) with
  | Some t -> check "tail: 11 outliers of 1000 put the tail on an outlier" (t.Bstats.value = 1000.)
  | None -> check "tail: outliers" false);
  (match Bstats.tail (List.init 1000 (fun i -> if i < 10 then 1000. else 1.)) with
  | Some t -> check "tail: 10 outliers of 1000 stay beyond it" (t.Bstats.value = 1.)
  | None -> check "tail: outliers" false);
  check "median: odd and even counts" (Bstats.median [ 3.; 1.; 2. ] = 2. && Bstats.median [ 4.; 1.; 3.; 2. ] = 2.5)

let lines name seed cycles =
  let w = Workload.make name ~seed in
  let stream = E2e.render w cycles in
  let buf = Buffer.create 65536 in
  Array.iter
    (Array.iter (function
      | E2e.RBatch { payload; _ } | E2e.RValidate { payload; _ } ->
        List.iter (fun (_, l) -> Buffer.add_string buf l; Buffer.add_char buf '\n') payload))
    stream;
  Buffer.contents buf

let determinism () =
  List.iter
    (fun name ->
      let a = lines name 7 6 and b = lines name 7 6 and c = lines name 8 6 in
      check (name ^ ": same seed, byte-identical request lines") (String.equal a b);
      check (name ^ ": another seed, different request lines") (not (String.equal a c)))
    Workload.names

(* The oracle (SQL engine) against the reference evaluator, on the base
   state of a tiny university instance and after planting violations. *)
let oracle () =
  let db, _, _, _ =
    Fcv_datagen.University.generate (Fcv_util.Rng.create 3)
      { Fcv_datagen.University.default with students = 12; courses = 6; violators = 1 }
  in
  let constraints =
    Workload.university_base @ Workload.university_policy
    @ [
        "holds >= 0.9 . forall s, c . takes(s, c) -> (exists a . course(c, a))";
        "holds >= 0.99 . forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
      ]
  in
  let agree what =
    let ok =
      List.for_all
        (fun src ->
          let spec = Core.Fol_parser.spec_of_string src in
          let f = spec.Core.Formula.formula in
          let v = Oracle.verdict db src in
          if Core.Formula.is_hard spec then v.Oracle.violated = not (Core.Naive_eval.holds db f)
          else v.Oracle.counts = Some (Core.Naive_eval.soft_counts db f))
        constraints
    in
    check ("oracle agrees with the naive evaluator: " ^ what) ok
  in
  agree "base state";
  let mutate insert table row = ignore (Oracle.apply db { Workload.insert; table; row }) in
  mutate true "takes" [ "3"; "77" ];
  mutate true "student" [ "5"; "x"; "1" ];
  agree "dangling enrolment and a second department";
  let violated = List.filter (fun s -> (Oracle.verdict db s).Oracle.violated) Workload.university_base in
  check "planted violations break exactly the course reference and the student key"
    (violated = [ List.nth Workload.university_base 0; List.nth Workload.university_base 2 ]);
  mutate false "takes" [ "3"; "77" ];
  mutate false "student" [ "5"; "x"; "1" ];
  agree "after removing the plants"

let () =
  tail_rule ();
  determinism ();
  oracle ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
