(** Unit tests for {!Fcv_util.Telemetry}: counter/gauge/histogram
    semantics, span nesting, JSON-lines export round-trip, the
    disabled fast path, and the end-to-end budget-fallback regression
    (a tiny node budget must produce exactly one budget-trip event and
    a correct SQL-fallback verdict). *)

module T = Fcv_util.Telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Telemetry is global state: every test runs against a fresh enabled
   instance and leaves it disabled. *)
let with_telemetry f () =
  T.reset ();
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

let test_counters () =
  let c = T.counter "test.c" in
  check_int "fresh counter is zero" 0 (T.counter_value c);
  T.incr c;
  T.incr ~by:41 c;
  check_int "incr accumulates" 42 (T.counter_value c);
  check "interning returns the same counter" true (T.counter "test.c" == c);
  T.reset ();
  check_int "reset zeroes" 0 (T.counter_value c)

let test_gauges () =
  let g = T.gauge "test.g" in
  T.gauge_set g 7;
  T.gauge_set g 3;
  check_int "gauge holds last value" 3 (T.gauge_value g);
  check_int "gauge tracks peak" 7 (T.gauge_peak g);
  T.gauge_set g 11;
  check_int "peak moves up" 11 (T.gauge_peak g)

let test_histograms () =
  let h = T.histogram "test.h" in
  List.iter (T.observe h) [ 1.0; 1.5; 3.0; 1024.0 ];
  check_int "count" 4 (T.histogram_count h);
  check (Printf.sprintf "sum = %f" (T.histogram_sum h)) true
    (abs_float (T.histogram_sum h -. 1029.5) < 1e-9);
  let buckets = T.histogram_buckets h in
  (* log2 buckets: 1.0 and 1.5 share [1,2); 3.0 in [2,4); 1024 in [1024,2048) *)
  check "bucket lows" true
    (List.map fst buckets = [ 1.0; 2.0; 1024.0 ]
    && List.map snd buckets = [ 2; 1; 1 ])

let test_span_nesting () =
  let v =
    T.with_span "outer" (fun () ->
        T.with_span "inner" (fun () -> 21 * 2))
  in
  check_int "with_span returns the body's value" 42 v;
  let paths =
    List.filter_map
      (fun ev ->
        match (T.Json.member "kind" ev, T.Json.member "path" ev) with
        | Some (T.String "span"), Some (T.String p) -> Some p
        | _ -> None)
      (T.events ())
  in
  (* inner completes (and records) first *)
  check "nested paths" true (paths = [ "outer/inner"; "outer" ]);
  (* the stack unwinds even when the body raises *)
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let v2 = T.with_span "after" (fun () -> 1) in
  check_int "span stack survives exceptions" 1 v2;
  let paths2 =
    List.filter_map
      (fun ev ->
        match (T.Json.member "kind" ev, T.Json.member "path" ev) with
        | Some (T.String "span"), Some (T.String p) -> Some p
        | _ -> None)
      (T.events ())
  in
  check "no stale frame after an exception" true
    (List.mem "after" paths2 && not (List.exists (fun p -> p = "boom/after") paths2))

let test_jsonl_round_trip () =
  T.incr ~by:3 (T.counter "rt.counter");
  T.observe (T.histogram "rt.hist") 2.5;
  T.event "rt.event"
    [
      ("answer", T.Int 42);
      ("pi", T.Float 3.25);
      ("label", T.String "quotes \" and \\ and\nnewline");
      ("flag", T.Bool true);
      ("nothing", T.Null);
      ("list", T.List [ T.Int 1; T.Int 2 ]);
    ];
  let lines =
    String.split_on_char '\n' (T.jsonl ()) |> List.filter (fun l -> l <> "")
  in
  check "export is non-empty" true (List.length lines >= 3);
  List.iter
    (fun line ->
      let parsed = T.Json.of_string line in
      (* canonical: parse(print(parse(line))) = parse(line) *)
      let reprinted = T.Json.of_string (T.Json.to_string parsed) in
      check ("round-trips: " ^ line) true (parsed = reprinted))
    lines;
  (* the event line carries its fields through the export *)
  let ev =
    List.find
      (fun l ->
        match T.Json.member "kind" (T.Json.of_string l) with
        | Some (T.String "rt.event") -> true
        | _ -> false)
      lines
    |> T.Json.of_string
  in
  check "int field" true (T.Json.member "answer" ev = Some (T.Int 42));
  check "string field" true
    (T.Json.member "label" ev = Some (T.String "quotes \" and \\ and\nnewline"));
  check "list field" true (T.Json.member "list" ev = Some (T.List [ T.Int 1; T.Int 2 ]))

let test_json_parser_errors () =
  List.iter
    (fun s ->
      match T.Json.of_string s with
      | exception T.Json.Parse_error _ -> ()
      | j -> Alcotest.failf "parsed %S to %s" s (T.Json.to_string j))
    [ ""; "{"; "[1,"; "{\"a\":}"; "truex"; "\"unterminated" ]

let test_disabled_is_noop () =
  (* with_telemetry enabled us; turn it off and hammer the API *)
  T.disable ();
  let c = T.counter "off.c" in
  let g = T.gauge "off.g" in
  let h = T.histogram "off.h" in
  T.incr ~by:100 c;
  T.gauge_set g 9;
  T.observe h 1.0;
  T.event "off.event" [ ("x", T.Int 1) ];
  let v = T.with_span "off.span" (fun () -> 5) in
  check_int "span still runs the body" 5 v;
  check_int "counter untouched" 0 (T.counter_value c);
  check_int "gauge untouched" 0 (T.gauge_peak g);
  check_int "histogram untouched" 0 (T.histogram_count h);
  check_int "no events recorded" 0 (List.length (T.events ()));
  check_int "nothing dropped" 0 (T.dropped_events ())

(* -- budget-fallback regression ------------------------------------------------ *)

(* A non-FD-shaped constraint, so the checker takes the generic
   compile path (the FD fast path would otherwise trip the budget a
   second time on its own). *)
let fallback_constraint = "forall x, y . r(x, y) -> (exists c . s(y, c))"

let test_budget_fallback () =
  let db = Gen.random_db 42 in
  let f = Core.Fol_parser.of_string fallback_constraint in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ f ];
  let expected = Core.Naive_eval.holds db f in
  (* leave just enough headroom that compilation, not index building,
     trips the budget *)
  let mgr = Core.Index.mgr index in
  Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 8);
  let r = Core.Checker.check index (Core.Formula.hard f) in
  check "fell back off the BDD path" true (r.Core.Checker.method_used <> Core.Checker.Bdd);
  check "fallback verdict matches the naive evaluator" expected
    (r.Core.Checker.outcome = Core.Checker.Satisfied);
  check "abandoned BDD attempt was accounted" true (r.Core.Checker.bdd_overhead_ms >= 0.);
  (* a budget trip charges the whole fallback run to fallback_ms *)
  check "fallback_ms is the fallback's elapsed time" true
    (r.Core.Checker.fallback_ms = r.Core.Checker.elapsed_ms);
  let trips =
    List.filter
      (fun ev -> T.Json.member "kind" ev = Some (T.String "bdd.budget_trip"))
      (T.events ())
  in
  check_int "exactly one budget-trip event" 1 (List.length trips);
  (match trips with
  | [ ev ] ->
    check "trip records the budget" true
      (T.Json.member "budget" ev = Some (T.Int (Fcv_bdd.Manager.max_nodes mgr)))
  | _ -> ());
  let fallbacks =
    List.filter
      (fun ev -> T.Json.member "kind" ev = Some (T.String "check.fallback"))
      (T.events ())
  in
  check_int "exactly one fallback event" 1 (List.length fallbacks);
  match fallbacks with
  | [ ev ] ->
    (match T.Json.member "method" ev with
    | Some (T.String m) ->
      check_string "fallback method matches the result" (Core.Checker.method_name r.Core.Checker.method_used) m
    | _ -> Alcotest.fail "fallback event lacks a method field");
    (match T.Json.member "bdd_overhead_ms" ev with
    | Some (T.Float ms) -> check "overhead is non-negative" true (ms >= 0.)
    | _ -> Alcotest.fail "fallback event lacks bdd_overhead_ms")
  | _ -> ()

(* Regression: choosing SQL up-front (the planner's [Force_sql]) pays
   neither the abandoned BDD attempt nor a "fallback" — both cost
   fields must be exactly zero, unlike the budget-trip path above. *)
let test_force_sql_costs_nothing_extra () =
  let db = Gen.random_db 42 in
  let f = Core.Fol_parser.of_string fallback_constraint in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ f ];
  let expected = Core.Naive_eval.holds db f in
  let r = Core.Checker.check ~strategy:Core.Checker.Force_sql index (Core.Formula.hard f) in
  check "method is SQL" true (r.Core.Checker.method_used = Core.Checker.Sql);
  check "verdict matches the naive evaluator" expected
    (r.Core.Checker.outcome = Core.Checker.Satisfied);
  check "no abandoned-attempt cost when SQL was chosen up-front" true
    (r.Core.Checker.bdd_overhead_ms = 0.);
  check "no fallback cost when SQL was chosen up-front" true
    (r.Core.Checker.fallback_ms = 0.);
  check_int "no budget-trip events" 0
    (List.length
       (List.filter
          (fun ev -> T.Json.member "kind" ev = Some (T.String "bdd.budget_trip"))
          (T.events ())))

(* The planner's cache telemetry: every plan outcome ticks exactly one
   of planner.{hit,miss,probe,replans}, in step with Planner.stats. *)
let test_planner_counters () =
  let module P = Core.Planner in
  let db = Gen.random_db 7 in
  let f = Core.Fol_parser.of_string fallback_constraint in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ f ];
  let p = P.create ~config:{ P.default_config with P.probe_every = 1 } () in
  (* expensive measured SQL history pins the first plan to BDD *)
  let slow_sql =
    {
      Core.Checker.outcome = Core.Checker.Satisfied;
      method_used = Core.Checker.Sql;
      elapsed_ms = 5.0;
      bdd_overhead_ms = 0.;
      fallback_ms = 0.;
      rewritten = f;
      check = Core.Rewrite.Check_valid;
      rate = None;
    }
  in
  let trip = { slow_sql with Core.Checker.elapsed_ms = 1.0; bdd_overhead_ms = 3.0 } in
  List.iter (P.observe p f) [ slow_sql; slow_sql; slow_sql ];
  ignore (P.plan p index f) (* miss *);
  ignore (P.plan p index f) (* hit *);
  List.iter (P.observe p f) [ trip; trip ] (* decision flip drops the cache *);
  ignore (P.plan p index f) (* replan, cached SQL *);
  ignore (P.plan p index f) (* hit (probe clock 0 -> 1) *);
  ignore (P.plan p index f) (* ε-probe *);
  let counters = [ ("planner.hit", 2); ("planner.miss", 1); ("planner.probe", 1); ("planner.replans", 1) ] in
  List.iter
    (fun (name, expect) -> check_int name expect (T.counter_value (T.counter name)))
    counters;
  let s = P.stats p in
  check_int "stats.hits agrees" s.P.hits (T.counter_value (T.counter "planner.hit"));
  check_int "stats.misses agrees" s.P.misses (T.counter_value (T.counter "planner.miss"));
  check_int "stats.probes agrees" s.P.probes (T.counter_value (T.counter "planner.probe"));
  check_int "stats.replans agrees" s.P.replans
    (T.counter_value (T.counter "planner.replans"))

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick (with_telemetry test_counters);
    Alcotest.test_case "gauge peak tracking" `Quick (with_telemetry test_gauges);
    Alcotest.test_case "histogram log buckets" `Quick (with_telemetry test_histograms);
    Alcotest.test_case "span nesting paths" `Quick (with_telemetry test_span_nesting);
    Alcotest.test_case "JSON-lines round-trip" `Quick (with_telemetry test_jsonl_round_trip);
    Alcotest.test_case "JSON parse errors" `Quick (with_telemetry test_json_parser_errors);
    Alcotest.test_case "disabled path records nothing" `Quick
      (with_telemetry test_disabled_is_noop);
    Alcotest.test_case "budget fallback: one trip, correct verdict" `Quick
      (with_telemetry test_budget_fallback);
    Alcotest.test_case "Force_sql up-front: zero overhead and fallback cost" `Quick
      (with_telemetry test_force_sql_costs_nothing_extra);
    Alcotest.test_case "planner cache counters" `Quick
      (with_telemetry test_planner_counters);
  ]

let () = Registry.register "telemetry" suite
