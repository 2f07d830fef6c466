(* Approximate-constraint benchmark: soft-check latency vs hard-check
   latency, and exactness of the reported violation rate, on the noise
   datagen family.

     dune exec bench/approx.exe [-- OUT.json]

   For each noise level the two sensor FDs are checked three ways:

   - hard (p = 1.0): the classical verdict, timed as the latency
     baseline;
   - soft (p = 0.999): the thresholded verdict with its exact rate,
     timed on the default route (FD fast path) and with the fast
     path ablated (the generic violation-BDD route, recorded as
     [generic_ms]);
   - batch: both soft specs of the noise level through the batch
     runner ({!C.check_all_pooled}) inline ([-j 1]) and on a 2-worker
     pool ([-j 2]), timed for the record;
   - recount: an independent row-scan ground truth — hash the distinct
     (sensor, location) projection pairs, then violations = Σ n(n−1)
     and bindings = Σ n² over the per-sensor group sizes n.  This is
     the same quantity the checker counts off the violation BDD
     (bindings satisfying the FD hypothesis / falsifying its body),
     computed with none of the checker's machinery.

   The gate (exit 1; fatal under FCV_CI=1 via bench/ci.sh):

   - the soft rate must equal the recount BIT FOR BIT — violation and
     binding counts as integers, the ratio as a float;
   - the pooled soft batch ([-j 2]) must report the inline batch's
     verdicts and rates bit for bit (its timing is informational);
   - verdicts must be consistent: soft outcome = the exact threshold
     comparison over the recounted integers, hard outcome = (any
     violation at all), clean data (noise 0) reports a zero rate;
   - soft may not be more than [max_soft_over_hard]× slower than hard
     (bench/baseline_approx.json) — counting every violation instead
     of finding one must stay the same order of work.  The ratio is
     machine-portable; absolute milliseconds are never gated. *)

module C = Core.Checker
module F = Core.Formula
module N = Fcv_bdd.Nat
module T = Fcv_util.Telemetry
module J = Fcv_util.Telemetry.Json
module Noise = Fcv_datagen.Noise

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let repeats = 3

let best_ms f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let t0 = Fcv_util.Timer.now () in
    let r = f () in
    let ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
    if ms < !best then best := ms;
    result := Some r
  done;
  (Option.get !result, !best)

(* -- the row-scan ground truth ------------------------------------------- *)

(* Distinct (lhs, rhs) projection pairs, grouped by lhs: with n
   distinct rhs values in a group, the FD's hypothesis holds on n²
   (lhs, rhs, rhs') bindings and its body fails on the n(n−1) with
   rhs ≠ rhs'. *)
let recount table ~lhs_col ~rhs_col =
  let pairs = Hashtbl.create 1024 in
  Fcv_relation.Table.iter table (fun row ->
      Hashtbl.replace pairs (row.(lhs_col), row.(rhs_col)) ());
  let group_sizes = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun (l, _) () ->
      Hashtbl.replace group_sizes l (1 + Option.value ~default:0 (Hashtbl.find_opt group_sizes l)))
    pairs;
  Hashtbl.fold (fun _ n (v, t) -> (v + (n * (n - 1)), t + (n * n))) group_sizes (0, 0)

(* -- one cell: one FD at one noise level ---------------------------------- *)

type cell = {
  noise : float;
  name : string;
  rhs_col : int;
  hard_ms : float;
  soft_ms : float;
  generic_ms : float;
  recount_ms : float;
  violations : int;
  bindings : int;
  ratio : float;
  soft_outcome : C.outcome;
}

let threshold = 0.999

let run_cell ~noise ~table ~index (name, src) ~rhs_col =
  let spec = Core.Fol_parser.spec_of_string (Printf.sprintf "holds >= %g . %s" threshold src) in
  let hard, hard_ms = best_ms (fun () -> C.check index (Core.Formula.hard spec.F.formula)) in
  let soft, soft_ms = best_ms (fun () -> C.check index spec) in
  (* the same soft check with the FD fast path ablated: what the
     violation-BDD route costs, for the record *)
  let _, generic_ms =
    best_ms (fun () ->
        C.check
          ~pipeline:{ C.default_pipeline with C.use_fd_fast_path = false }
          index spec)
  in
  let (rv, rt), recount_ms = best_ms (fun () -> recount table ~lhs_col:0 ~rhs_col) in
  let rate =
    match soft.C.rate with
    | Some r -> r
    | None ->
      fail "%s noise=%g: soft check reported no rate" name noise;
      { C.violations = N.zero; total = N.zero; ratio = 0.; threshold }
  in
  (* exactness: bit for bit against the row scan *)
  if N.to_int_opt rate.C.violations <> Some rv then
    fail "%s noise=%g: rate violations %s, recount %d" name noise
      (N.to_string rate.C.violations) rv;
  if N.to_int_opt rate.C.total <> Some rt then
    fail "%s noise=%g: rate bindings %s, recount %d" name noise
      (N.to_string rate.C.total) rt;
  let expected_ratio = if rt = 0 then 0. else float_of_int rv /. float_of_int rt in
  if Int64.bits_of_float rate.C.ratio <> Int64.bits_of_float expected_ratio then
    fail "%s noise=%g: ratio %.17g, recount %.17g" name noise rate.C.ratio expected_ratio;
  (* verdict consistency *)
  let expected_soft =
    if C.clears ~threshold ~violations:(N.of_int rv) ~total:(N.of_int rt) then C.Satisfied
    else C.Violated
  in
  if soft.C.outcome <> expected_soft then
    fail "%s noise=%g: soft verdict disagrees with the exact recount comparison" name
      noise;
  if (hard.C.outcome = C.Violated) <> (rv > 0) then
    fail "%s noise=%g: hard verdict disagrees with the recount" name noise;
  if noise = 0. && rv <> 0 then fail "%s: clean data recounted a nonzero rate" name;
  Printf.printf
    "  %-26s noise=%-6g hard %6.2f ms  soft %6.2f ms (generic %6.2f)  recount %6.2f ms  \
     rate %d/%d = %.5f  [%s]\n%!"
    name noise hard_ms soft_ms generic_ms recount_ms rv rt expected_ratio
    (match soft.C.outcome with C.Satisfied -> "satisfied" | C.Violated -> "violated");
  {
    noise;
    name;
    rhs_col;
    hard_ms;
    soft_ms;
    generic_ms;
    recount_ms;
    violations = rv;
    bindings = rt;
    ratio = expected_ratio;
    soft_outcome = soft.C.outcome;
  }

(* Both soft specs of one noise level through the batch runner, inline
   and on the pool: verdicts and rates must match bit for bit (fatal);
   the timing is for the record. *)
type batch = { b_noise : float; j1_ms : float; j2_ms : float }

let run_batch ~noise ~pool index =
  let specs =
    List.map
      (fun (_, src) -> Core.Fol_parser.spec_of_string (Printf.sprintf "holds >= %g . %s" threshold src))
      Noise.fd_constraints
  in
  let replica = Core.Replica.create index in
  let run pool () =
    List.map (function Ok r -> r | Error e -> raise e) (C.check_all_pooled ?pool index specs)
  in
  let j1, j1_ms = best_ms (run None) in
  let j2, j2_ms = best_ms (run (Some (pool, replica))) in
  let key r =
    ( r.C.outcome,
      Option.map
        (fun rt ->
          (N.to_string rt.C.violations, N.to_string rt.C.total, Int64.bits_of_float rt.C.ratio))
        r.C.rate )
  in
  if List.map key j1 <> List.map key j2 then
    fail "noise=%g: soft batch at -j 2 disagrees with -j 1" noise;
  Printf.printf "  soft batch (%d specs)        noise=%-6g -j 1 %6.2f ms  -j 2 %6.2f ms\n%!"
    (List.length specs) noise j1_ms j2_ms;
  { b_noise = noise; j1_ms; j2_ms }

let run_noise_level ~pool noise =
  let rng = Fcv_util.Rng.create 2007 in
  let cfg = { Noise.default with Noise.loc_noise = noise; unit_noise = noise } in
  let db, table = Noise.generate rng cfg in
  let specs =
    List.map (fun (_, src) -> Core.Fol_parser.of_string src) Noise.fd_constraints
  in
  let index = Core.Index.create db in
  C.ensure_indices index specs;
  let cells =
    List.map2
      (fun fd rhs_col -> run_cell ~noise ~table ~index fd ~rhs_col)
      Noise.fd_constraints [ 1; 2 ]
  in
  (cells, run_batch ~noise ~pool index)

(* -- baseline gate --------------------------------------------------------- *)

let read_json path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  J.of_string s

let gate_against_baseline cells =
  let path = "bench/baseline_approx.json" in
  if not (Sys.file_exists path) then
    Printf.printf "(no %s — skipping the latency-ratio gate)\n%!" path
  else
    let limit =
      match J.member "max_soft_over_hard" (read_json path) with
      | Some (T.Float x) -> Some x
      | Some (T.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    match limit with
    | None -> fail "malformed %s: no max_soft_over_hard" path
    | Some limit ->
      List.iter
        (fun c ->
          (* sub-millisecond hard checks measure timer noise, not the
             engine; the ratio is only meaningful on real work *)
          if c.hard_ms >= 1.0 then begin
            let ratio = c.soft_ms /. c.hard_ms in
            if ratio > limit then
              fail "%s noise=%g: soft check %.1fx slower than hard (limit %.1fx)" c.name
                c.noise ratio limit
          end)
        cells

(* -- entry ------------------------------------------------------------------ *)

let cell_json c =
  T.Obj
    [
      ("name", T.String c.name);
      ("noise", T.Float c.noise);
      ("hard_ms", T.Float c.hard_ms);
      ("soft_ms", T.Float c.soft_ms);
      ("generic_ms", T.Float c.generic_ms);
      ("recount_ms", T.Float c.recount_ms);
      ("violations", T.Int c.violations);
      ("bindings", T.Int c.bindings);
      ("rate", T.Float c.ratio);
      ( "soft_outcome",
        T.String (match c.soft_outcome with C.Satisfied -> "satisfied" | C.Violated -> "violated")
      );
    ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_approx.json" in
  Printf.printf
    "approximate constraints — soft (p=%g) vs hard checks on the noise family (%d rows)\n%!"
    threshold Noise.default.Noise.rows;
  let pool = Fcv_util.Pool.create ~name:"approx" ~jobs:2 () in
  let levels =
    Fun.protect
      ~finally:(fun () -> Fcv_util.Pool.shutdown pool)
      (fun () -> List.map (run_noise_level ~pool) [ 0.0; 0.001; 0.01; 0.05 ])
  in
  let cells = List.concat_map fst levels in
  let batches = List.map snd levels in
  gate_against_baseline cells;
  let doc =
    T.Obj
      [
        ("bench", T.String "approx");
        ("env", T.Obj [ ("ocaml", T.String Sys.ocaml_version) ]);
        ("threshold", T.Float threshold);
        ("rows", T.Int Noise.default.Noise.rows);
        ("repeats", T.Int repeats);
        ("cells", T.List (List.map cell_json cells));
        ( "soft_batches",
          T.List
            (List.map
               (fun b ->
                 T.Obj
                   [ ("noise", T.Float b.b_noise); ("j1_ms", T.Float b.j1_ms); ("j2_ms", T.Float b.j2_ms) ])
               batches) );
      ]
  in
  let oc = open_out out in
  output_string oc (J.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if !failures > 0 then begin
    Printf.printf "%d gate failure%s\n%!" !failures (if !failures = 1 then "" else "s");
    exit 1
  end
