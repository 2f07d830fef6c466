(** Ablation study of the checker pipeline (DESIGN.md §5): each row is
    one constraint on the customer workload, each column removes one
    ingredient —

    - full:      §4.4 rewrites, fused appex/appall, violation polarity
    - direct:    same rewrites, direct validity test instead of the
                 violation-satisfiability test
    - unfused:   rewrites, direct polarity, separate quantify-after-
                 apply instead of appex/appall
    - none:      no rewrites at all (closed-formula validity, unfused)

    The naive-vs-direct relation encoder is ablated in fig4a and the
    ordering strategies in table1. *)

module M = Fcv_bdd.Manager
open Bench_util

let rows = match scale with Quick -> 50_000 | Full -> 400_000

let constraints =
  [
    ( "fd areacode->state",
      "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2" );
    ( "membership",
      "forall c, a . cust(a, _, c, _, _) and (exists a2 . allowed(c, a2)) -> allowed(c, a)" );
    ( "curriculum-shaped",
      "forall c . cust(_, _, c, _, _) -> (exists a . allowed(c, a)) \
       or (exists s . rules(c, s))" );
  ]

(* "full" keeps every optimisation including the FD fast path; the
   other columns disable the fast path so the FD row exposes what the
   generic compiler costs under each variant. *)
let pipelines =
  [
    ("full", Core.Checker.default_pipeline);
    ( "compiled",
      { Core.Checker.default_pipeline with Core.Checker.use_fd_fast_path = false } );
    ( "direct",
      { Core.Checker.direct_pipeline with Core.Checker.use_fd_fast_path = false } );
    ( "unfused",
      {
        Core.Checker.direct_pipeline with
        Core.Checker.use_appquant = false;
        use_fd_fast_path = false;
      } );
    ("none", Core.Checker.naive_pipeline);
  ]

let run () =
  section "Ablations: checker pipeline variants (ms per check)";
  let rng = Fcv_util.Rng.create 4242 in
  let db = Fcv_datagen.Customers.make_db () in
  let _cust, world =
    Fcv_datagen.Customers.generate ~violation_rate:0.001 rng db ~name:"cust" ~rows
  in
  let _allowed =
    Fcv_datagen.Customers.constraints_table rng db world ~name:"allowed" ~n:10_000
  in
  let rules =
    Fcv_relation.Database.create_table db ~name:"rules"
      ~attrs:[ ("city", "city"); ("state", "state") ]
  in
  Array.iteri
    (fun city state ->
      if city mod 3 = 0 then Fcv_relation.Table.insert_coded rules [| city; state |])
    world.Fcv_datagen.Customers.city_state;
  let index = Core.Index.create db in
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "areacode"; "city"; "state" ]
       ~strategy:Core.Ordering.Prob_converge ());
  ignore (Core.Index.add index ~table_name:"allowed" ~strategy:Core.Ordering.Prob_converge ());
  ignore (Core.Index.add index ~table_name:"rules" ~strategy:Core.Ordering.Prob_converge ());
  let reset () = M.clear_caches (Core.Index.mgr index) in
  row "%-22s" "constraint";
  List.iter (fun (name, _) -> row " %10s" name) pipelines;
  row "\n";
  List.iter
    (fun (label, src) ->
      let c = Core.Fol_parser.of_string src in
      row "%-22s" label;
      List.iter
        (fun (_, pipeline) ->
          let ms =
            time_ms ~reset (fun () -> ignore (Core.Checker.check ~pipeline index (Core.Formula.hard c)))
          in
          row " %10.1f" ms)
        pipelines;
      row "\n")
    constraints;
  paper_note
    "on index-dominated constraints (rename + projection costs) the variants \
     tie; the rewrites' profit shows on quantifier-heavy multi-join queries — \
     see table1's no-rewrite column (up to ~15x slower than the full pipeline)"
