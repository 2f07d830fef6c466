(** The constraint checker: the paper's end-to-end pipeline.

    Given a constraint and a database with logical indices:

    + typecheck ({!Typing});
    + apply the §4.4 rewrite pipeline ({!Rewrite.optimize}): prenex →
      leading-quantifier elimination → negation (violation polarity)
      → ∀ push-down on the formula to be compiled;
    + compile the remaining formula to a BDD over the indices
      ({!Compile}), under the manager's {b node budget};
    + read the answer off the final BDD in O(1): validity or
      satisfiability relative to the free variables' domain guards;
    + if the budget is exceeded ({!Fcv_bdd.Manager.Node_limit}),
      abandon BDD processing and run the SQL violation query
      ({!To_sql}) — or, outside the safe-SQL fragment, the naive
      evaluator ({!Naive_eval}).

    A soft constraint (threshold < 1) runs the same pipeline but
    counts instead of deciding: exact violation/support counts, then
    an exact threshold comparison. *)

module M = Fcv_bdd.Manager
module N = Fcv_bdd.Nat
module O = Fcv_bdd.Ops
module T = Fcv_util.Telemetry

type method_used = Bdd | Sql | Naive

let method_name = function Bdd -> "BDD" | Sql -> "SQL" | Naive -> "naive"

(** How to check: [Auto] is the paper's thresholding (BDD first, SQL
    on budget trip); [Force_sql] goes straight to the violation query,
    paying no abandoned attempt. *)
type strategy = Auto | Force_sql

let strategy_name = function Auto -> "auto" | Force_sql -> "sql"

type outcome = Satisfied | Violated

(** The measured violation rate of a soft (thresholded) check.  The
    counts are exact ({!Fcv_bdd.Nat}); [ratio] is their correctly
    rounded float quotient, for display — the verdict itself never
    goes through float arithmetic. *)
type rate = {
  violations : Fcv_bdd.Nat.t;  (** bindings falsifying the body *)
  total : Fcv_bdd.Nat.t;  (** bindings satisfying the hypothesis *)
  ratio : float;  (** violations / total; [0.] when [total] is zero *)
  threshold : float;
}

type result = {
  outcome : outcome;
  method_used : method_used;
  elapsed_ms : float;
  bdd_overhead_ms : float;
      (** time spent on the abandoned BDD attempt when a fallback ran *)
  fallback_ms : float;
      (** time spent in the fallback engine after a budget trip; [0.]
          when no trip occurred (in particular on the up-front
          [Force_sql] path) *)
  rewritten : Formula.t;  (** the formula whose BDD was (to be) built *)
  check : Rewrite.check;
  rate : rate option;
      (** measured violation rate; [Some] exactly on soft checks
          (threshold < 1), [None] on every hard check *)
}

type pipeline = {
  rewrite : Formula.t -> Rewrite.check * Formula.t;
      (** the check mode and the formula to compile — the polarity is
          the rewrite's choice ({!Rewrite.polarity}) *)
  use_appquant : bool;
  use_fd_fast_path : bool;
      (** route FD-shaped constraints to the projection-count method
          (the paper's Fig. 5(b) technique) instead of compiling the
          self-join *)
}

(** The paper's full pipeline, under the violation polarity. *)
let default_pipeline =
  { rewrite = Rewrite.optimize Rewrite.Violation; use_appquant = true; use_fd_fast_path = true }

(** Same rewrites, but the direct validity test (for the polarity
    ablation). *)
let direct_pipeline = { default_pipeline with rewrite = Rewrite.optimize Rewrite.Direct }

(** Ablation: skip every rewrite (build the BDD of the closed formula
    and test validity) and use unfused quantification. *)
let naive_pipeline =
  { rewrite = Rewrite.no_rewrite; use_appquant = false; use_fd_fast_path = false }

(* Compile the rewritten formula and decide the outcome from its BDD.
   With leading quantifiers eliminated, the formula has free
   variables; the test is relative to their domain guards (invalid bit
   patterns are out of scope). *)
let decide ctx check_mode compiled free =
  let root = T.with_span "compile" (fun () -> Compile.compile ctx compiled) in
  T.with_span "verdict" (fun () ->
      let m = Compile.mgr ctx in
      let guard = Compile.free_guard ctx free in
      let holds =
        match check_mode with
        | Rewrite.Check_valid -> O.is_true (O.bimp m guard root)
        | Rewrite.Check_satisfiable -> O.is_satisfiable (O.band m guard root)
        | Rewrite.Check_unsatisfiable -> O.is_false (O.band m guard root)
      in
      if holds then Satisfied else Violated)

(* SQL fallback; on Not_safe fall further back to the naive evaluator. *)
let fallback db typing constraint_ =
  match To_sql.violated db typing constraint_ with
  | violated -> ((if violated then Violated else Satisfied), Sql)
  | exception To_sql.Not_safe _ ->
    ((if Naive_eval.holds ~typing db constraint_ then Satisfied else Violated), Naive)

let ms_since t0 = (Fcv_util.Timer.now () -. t0) *. 1000.

(* Run the fallback engine after a budget trip: the time since [t0]
   was the abandoned BDD attempt; [run] returns its value and the
   method that produced it. *)
let after_trip t0 run =
  let overhead_ms = ms_since t0 in
  let t1 = Fcv_util.Timer.now () in
  let v, method_used = T.with_span "fallback" run in
  let fallback_ms = ms_since t1 in
  if T.enabled () then
    T.event "check.fallback"
      [
        ("method", T.String (method_name method_used));
        ("bdd_overhead_ms", T.Float overhead_ms);
        ("fallback_ms", T.Float fallback_ms);
      ];
  (v, method_used, overhead_ms, fallback_ms)

(* A result whose elapsed time is the fallback's alone after a trip
   (the abandoned attempt is [overhead_ms]), else the whole run. *)
let make ?(overhead_ms = 0.) ?(fallback_ms = 0.) ?(check = Rewrite.Check_valid) ?rate
    ~elapsed_ms ~rewritten outcome method_used =
  {
    outcome;
    method_used;
    elapsed_ms;
    bdd_overhead_ms = overhead_ms;
    fallback_ms;
    rewritten;
    check;
    rate;
  }

(* Post-check telemetry: per-check outcome event with the kernel-stat
   deltas (apply-cache hit rate, nodes allocated, peak) plus the
   method counters; [before] is the manager snapshot taken on entry. *)
let tel_check_done ~before ~mgr r =
  if T.enabled () then begin
    T.incr (T.counter "checker.checks");
    (match r.method_used with
    | Bdd -> ()
    | Sql -> T.incr (T.counter "checker.fallbacks.sql")
    | Naive -> T.incr (T.counter "checker.fallbacks.naive"));
    let after = M.stats mgr in
    T.observe (T.histogram "checker.elapsed_ms") r.elapsed_ms;
    T.event "check.done"
      [
        ("method", T.String (method_name r.method_used));
        ("outcome", T.String (match r.outcome with Satisfied -> "satisfied" | Violated -> "violated"));
        ("elapsed_ms", T.Float r.elapsed_ms);
        ("bdd_overhead_ms", T.Float r.bdd_overhead_ms);
        ("cache_hit_rate", T.Float (M.cache_hit_rate ~before after));
        ("nodes_allocated", T.Int (after.M.unique_misses - before.M.unique_misses));
        ("peak_nodes", T.Int after.M.peak_nodes);
        ("budget_trips", T.Int (after.M.budget_trips - before.M.budget_trips));
      ]
  end

(* The classical verdict: the FD fast path when the shape matches and
   an index covers it, else compile-and-decide under the node budget,
   with the SQL (or naive) fallback on a trip — or up front under
   [Force_sql].  [t0] is the check's clock, started after typing. *)
let check_hard ~pipeline ~strategy ~t0 index typing constraint_ =
  let db = index.Index.db in
  match strategy with
  | Force_sql ->
    (* planned straight to the violation query: no BDD attempt, so
       neither abandoned-attempt overhead nor a "fallback" is paid *)
    let outcome, method_used =
      T.with_span "fallback" (fun () -> fallback db typing constraint_)
    in
    make ~elapsed_ms:(ms_since t0) ~rewritten:constraint_ outcome method_used
  | Auto -> (
    let fd_fast_path () =
      if not pipeline.use_fd_fast_path then None
      else
        match Fd_check.recognize_fd db constraint_ with
        | Some (table_name, lhs, rhs) -> (
          let schema = Fcv_relation.Table.schema (Fcv_relation.Database.table db table_name) in
          let needed = List.map (Fcv_relation.Schema.position schema) (rhs :: lhs) in
          match Index.find_covering index ~table_name ~needed with
          | Some _ -> (
            match
              T.with_span "fd_fast_path" (fun () ->
                  Fd_check.fd_holds index ~table_name ~lhs ~rhs:[ rhs ])
            with
            | holds -> Some (if holds then Satisfied else Violated)
            (* past the node budget (or out of level space), fall through
               to the generic path, which carries the SQL fallback *)
            | exception (M.Node_limit _ | M.Level_limit _) -> None)
          | None -> None)
        | None -> None
    in
    match fd_fast_path () with
    | Some outcome -> make ~elapsed_ms:(ms_since t0) ~rewritten:constraint_ outcome Bdd
    | None -> (
      let check_mode, rewritten = T.with_span "rewrite" (fun () -> pipeline.rewrite constraint_) in
      (* the rewrite renames bound variables apart, so the compile context
         needs a typing of the rewritten formula *)
      let typing_rw = Typing.infer db rewritten in
      let ctx = Compile.make_ctx ~use_appquant:pipeline.use_appquant index typing_rw in
      let free = Formula.Sset.elements (Formula.free_vars rewritten) in
      match
        Fun.protect
          ~finally:(fun () -> Compile.release ctx)
          (fun () -> decide ctx check_mode rewritten free)
      with
      | outcome -> make ~check:check_mode ~elapsed_ms:(ms_since t0) ~rewritten outcome Bdd
      | exception (M.Node_limit _ | M.Level_limit _) ->
        let outcome, method_used, overhead_ms, fallback_ms =
          after_trip t0 (fun () -> fallback db typing constraint_)
        in
        make ~overhead_ms ~fallback_ms ~check:check_mode ~elapsed_ms:fallback_ms ~rewritten
          outcome method_used))

(* -- approximate (thresholded) checks --------------------------------------- *)

let ratio_of ~violations ~total =
  if N.is_zero total then 0. else N.to_float violations /. N.to_float total

(** Exact threshold test: does the satisfied fraction reach
    [threshold]?  [threshold] is read off its float representation as
    the dyadic rational P/2^k (frexp), and the comparison
    [(total − violations)·2^k ≥ P·total] runs entirely in {!Fcv_bdd.Nat}
    arithmetic — no float ever touches the counts, so a near-threshold
    count cannot round across the verdict boundary (the [2^53]
    landmine of the float sat-counts).  A zero [total] holds
    vacuously. *)
let clears ~threshold ~violations ~total =
  if N.is_zero total then true
  else begin
    (* threshold = mp·2^ep with mp ∈ [0.5, 1); mp·2^53 is an integer *)
    let mp, ep = Float.frexp threshold in
    let p = N.of_int (int_of_float (Float.ldexp mp 53)) in
    let k = 53 - ep in
    let satisfied = N.sub total violations in
    N.compare (N.shift_left satisfied k) (N.mul p total) >= 0
  end

(* The soft verdict: exact violation/support counts (FD fast path
   when the shape matches and an index covers it, the general
   violation-BDD analyzer otherwise), the exact threshold comparison,
   and a naive full recount up front under [Force_sql] (there is no
   SQL form of the rate query) or after a budget trip. *)
let check_soft ~pipeline ~strategy ~t0 index typing (spec : Formula.spec) =
  let threshold = spec.Formula.threshold in
  let c = spec.Formula.formula in
  let db = index.Index.db in
  let with_rate ?overhead_ms ?fallback_ms ~elapsed_ms (violations, total) method_used =
    let outcome = if clears ~threshold ~violations ~total then Satisfied else Violated in
    make ?overhead_ms ?fallback_ms ~elapsed_ms ~rewritten:c
      ~rate:{ violations; total; ratio = ratio_of ~violations ~total; threshold }
      outcome method_used
  in
  let naive_counts () =
    let v, t = Naive_eval.soft_counts ~typing db c in
    ((N.of_int v, N.of_int t), Naive)
  in
  match strategy with
  | Force_sql ->
    let counts, method_used = T.with_span "fallback" naive_counts in
    with_rate ~elapsed_ms:(ms_since t0) counts method_used
  | Auto -> (
    let bdd_counts () =
      let fd =
        if not pipeline.use_fd_fast_path then None
        else
          match (Fd_check.recognize_fd db c, c) with
          (* the projection counts are the binding counts only when the
             ∀ binds nothing but the lhs and the two rhs variables: a
             payload variable multiplies the bindings *)
          | Some (table_name, lhs, rhs), Formula.Forall (xs, _)
            when List.length xs = List.length lhs + 2 ->
            T.with_span "fd_fast_path" (fun () ->
                Fd_check.fd_soft_counts index ~table_name ~lhs ~rhs:[ rhs ])
          | _ -> None
      in
      match fd with Some counts -> Some counts | None -> Violations.soft_counts index c
    in
    match bdd_counts () with
    | Some counts -> with_rate ~elapsed_ms:(ms_since t0) counts Bdd
    | None ->
      (* no leading ∀-block to witness: 0/1 semantics off the plain
         verdict (rate 1 when violated, 0 when satisfied — the
         outcome is unchanged for any threshold in (0, 1]) *)
      let r = check_hard ~pipeline ~strategy ~t0 index typing c in
      let violated = r.outcome = Violated in
      {
        r with
        rate =
          Some
            {
              violations = (if violated then N.one else N.zero);
              total = N.one;
              ratio = (if violated then 1. else 0.);
              threshold;
            };
      }
    | exception (M.Node_limit _ | M.Level_limit _) ->
      let counts, method_used, overhead_ms, fallback_ms = after_trip t0 naive_counts in
      with_rate ~overhead_ms ~fallback_ms ~elapsed_ms:fallback_ms counts method_used)

(** Check one constraint spec.  [index] supplies the BDD manager, node
    budget and logical indices; every relation mentioned by the
    constraint must have a covering index (see {!ensure_indices}).
    Hard specs ([threshold = 1.0]) decide the classical verdict and
    report no rate; soft specs measure the exact violation rate and
    compare it against the threshold. *)
let check ?(pipeline = default_pipeline) ?(strategy = Auto) index (spec : Formula.spec) =
  if not (Formula.is_closed spec.Formula.formula) then
    invalid_arg "Checker.check: constraint must be a closed formula";
  let hard = Formula.is_hard spec in
  T.with_span (if hard then "check" else "check_soft") @@ fun () ->
  let mgr = Index.mgr index in
  let kstats0 = M.stats mgr in
  let typing = T.with_span "typing" (fun () -> Typing.infer_spec index.Index.db spec) in
  let t0 = Fcv_util.Timer.now () in
  let r =
    if hard then check_hard ~pipeline ~strategy ~t0 index typing spec.Formula.formula
    else check_soft ~pipeline ~strategy ~t0 index typing spec
  in
  tel_check_done ~before:kstats0 ~mgr r;
  r

(* -- batches: cost estimates, task granularity, the runner ------------------- *)

type granularity = {
  batch_under_ms : float;
  max_batch : int;
  split_over_ms : float;
  max_parts : int;
}

let default_granularity =
  { batch_under_ms = 5.0; max_batch = 8; split_over_ms = 250.0; max_parts = 8 }

(* Estimate the cost of checking [f] against [index], in rough
   milliseconds, from index statistics alone: BDD node counts of the
   entries covering each mentioned relation plus a per-atom term.
   Only the relative order matters (expensive checks are scheduled
   first); callers with better numbers (the planner's costed plans)
   pass them as the runner's [costs]. *)
let cost_estimate index f =
  let nodes =
    List.fold_left
      (fun acc rel ->
        List.fold_left (fun acc e -> acc + Index.entry_size index e) acc
          (Index.entries_for index rel))
      0 (Formula.relations f)
  in
  (0.001 *. float_of_int nodes) +. (0.05 *. float_of_int (Formula.atom_count f)) +. 0.01

(** Split a constraint into independently checkable conjuncts:
    [∀xs.(A ∧ B) ≡ (∀xs.A) ∧ (∀xs.B)].  Every part keeps the {e full}
    quantifier prefix — dropping binders would change vacuous-truth
    semantics over empty active domains — so a [Forall] splits only
    when each conjunct still mentions every prefix variable (which
    also keeps the parts typeable).  Returns [[f]] when nothing
    splits. *)
let rec split_conjuncts f =
  match f with
  | Formula.And (a, b) -> split_conjuncts a @ split_conjuncts b
  | Formula.Forall (xs, body) ->
    let parts = split_conjuncts body in
    if
      List.length parts > 1
      && List.for_all
           (fun p ->
             let free = Formula.free_vars p in
             List.for_all (fun x -> Formula.Sset.mem x free) xs)
           parts
    then List.map (fun p -> Formula.Forall (xs, p)) parts
    else [ f ]
  | _ -> [ f ]

(* Merge the part results of a split hard constraint back into one
   result: satisfied iff every conjunct is; a failed part fails the
   constraint (first failing part wins).  [rewritten]/[check] come
   from the first part (there is no single compiled formula for a
   merged verdict); times are summed — the work actually done. *)
let merge_parts parts =
  match List.find_map (function Error e -> Some e | Ok _ -> None) parts with
  | Some e -> Error e
  | None -> (
    match List.map Result.get_ok parts with
    | [] -> invalid_arg "Checker.merge_parts: no parts"
    | first :: _ as rs ->
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
      Ok
        {
          outcome =
            (if List.for_all (fun r -> r.outcome = Satisfied) rs then Satisfied else Violated);
          method_used =
            (if List.for_all (fun r -> r.method_used = Bdd) rs then Bdd
             else if List.exists (fun r -> r.method_used = Naive) rs then Naive
             else Sql);
          elapsed_ms = sum (fun r -> r.elapsed_ms);
          bdd_overhead_ms = sum (fun r -> r.bdd_overhead_ms);
          fallback_ms = sum (fun r -> r.fallback_ms);
          rewritten = first.rewritten;
          check = first.check;
          rate = None;
        })

(* The expensive-first pooled schedule: one task per constraint,
   tiny ones chunked, huge splittable hard ones split into parts;
   results come back per (constraint, part) and merge in part order. *)
let run_pooled ~granularity ~costs ~check_on pool replica specs =
  Replica.prepare replica;
  let master = Replica.master replica in
  let db = master.Index.db in
  let n = Array.length specs in
  let costs =
    Array.mapi
      (fun i (s : Formula.spec) ->
        match costs.(i) with Some c -> c | None -> cost_estimate master s.Formula.formula)
      specs
  in
  (* split plan: parts.(i) has length > 1 only for huge conjunctive
     hard constraints whose every part still typechecks — a soft rate
     does not split across conjuncts *)
  let parts =
    Array.mapi
      (fun i (s : Formula.spec) ->
        if costs.(i) < granularity.split_over_ms || not (Formula.is_hard s) then [| s |]
        else
          let ps = split_conjuncts s.Formula.formula in
          let k = List.length ps in
          let part_ok p =
            Formula.is_closed p
            && match Typing.infer db p with _ -> true | exception Typing.Type_error _ -> false
          in
          if k > 1 && k <= granularity.max_parts && List.for_all part_ok ps then
            Array.of_list (List.map Formula.hard ps)
          else [| s |])
      specs
  in
  (* task list: (cost, thunk) where a thunk returns per-(constraint,
     part) results; tiny unsplit constraints are chunked greedily in
     input order *)
  let do_check i s () = (i, check_on (Replica.get replica) i s) in
  let tasks = ref [] in
  let chunk = ref [] and chunk_cost = ref 0. in
  let flush_chunk () =
    match !chunk with
    | [] -> ()
    | members ->
      let members = List.rev members in
      tasks :=
        ( !chunk_cost,
          fun () -> List.map (fun (i, s) -> (i, 0, snd (do_check i s ()))) members )
        :: !tasks;
      chunk := [];
      chunk_cost := 0.
  in
  Array.iteri
    (fun i s ->
      let k = Array.length parts.(i) in
      if k > 1 then begin
        flush_chunk ();
        Array.iteri
          (fun p part ->
            tasks :=
              (costs.(i) /. float_of_int k, fun () -> [ (i, p, snd (do_check i part ())) ])
              :: !tasks)
          parts.(i)
      end
      else if costs.(i) < granularity.batch_under_ms then begin
        chunk := (i, s) :: !chunk;
        chunk_cost := !chunk_cost +. costs.(i);
        if List.length !chunk >= granularity.max_batch then flush_chunk ()
      end
      else begin
        flush_chunk ();
        tasks := (costs.(i), fun () -> [ (i, 0, snd (do_check i s ())) ]) :: !tasks
      end)
    specs;
  flush_chunk ();
  let tasks = Array.of_list (List.rev !tasks) in
  let thunks = Array.map snd tasks in
  (* expensive-first execution order, index tiebreak for determinism *)
  let order = Array.init (Array.length tasks) Fun.id in
  Array.sort
    (fun a b -> match compare (fst tasks.(b)) (fst tasks.(a)) with 0 -> compare a b | c -> c)
    order;
  let outs = Fcv_util.Pool.run_ordered pool ~order thunks in
  let per = Array.make n [] in
  Array.iter (List.iter (fun (i, p, r) -> per.(i) <- (p, r) :: per.(i))) outs;
  List.init n (fun i ->
      match per.(i) with
      | [ (_, r) ] -> r
      | prs -> merge_parts (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) prs)))

(** Check a batch of specs (the paper's setting: many user-defined
    constraints validated together).  Results come back in input
    order, one per spec; a spec whose check raised carries the
    exception, and the other specs still get their verdicts.

    Without [pool], this is [List.map check] on the calling domain.
    With [pool] (a worker pool and a replica set bound to [index]),
    tasks run expensive-first through the pool's claimed-batch
    scheduler ({!Fcv_util.Pool.run_ordered}); each spec's cost is
    taken from [costs] (measured or planned milliseconds) or estimated
    from index statistics.  [granularity] adapts task size: specs
    cheaper than [batch_under_ms] are chunked ([max_batch] at a time)
    so task bookkeeping stops dominating tiny checks, and a hard spec
    over [split_over_ms] whose formula splits into independent
    conjuncts ({!split_conjuncts}, up to [max_parts]) is checked as
    parallel subformula tasks and merged — same outcome by
    [∀x.(A∧B) ≡ (∀x.A)∧(∀x.B)].  A batch of fewer than two specs runs
    inline even with a pool: there is nothing to overlap.  Verdicts,
    methods and rates are those of the inline run either way. *)
let check_all_pooled ?(granularity = default_granularity) ?costs ?strategies ?pool index
    specs =
  let n = List.length specs in
  let per name default = function
    | Some l when List.length l = n -> Array.of_list l
    | Some _ -> invalid_arg ("Checker.check_all_pooled: " ^ name ^ " length mismatch")
    | None -> Array.make n default
  in
  let strategies = per "strategies" Auto strategies and costs = per "costs" None costs in
  let check_on idx i spec =
    match check ~strategy:strategies.(i) idx spec with r -> Ok r | exception e -> Error e
  in
  match pool with
  | Some (pool, replica) when n > 1 ->
    if Replica.master replica != index then
      invalid_arg "Checker.check_all_pooled: replica set not bound to this index";
    run_pooled ~granularity ~costs ~check_on pool replica (Array.of_list specs)
  | Some _ | None -> List.mapi (fun i spec -> check_on index i spec) specs

(** Make sure every relation mentioned in [constraints] has a
    full-attribute logical index, building missing ones with
    [strategy] (default Prob-Converge, the paper's recommendation).
    Entries are built constraint by constraint in list order (sorted
    relations within one constraint), so a list call lays out levels
    exactly as registering the constraints one at a time does. *)
let ensure_indices ?(strategy = Ordering.Prob_converge) index constraints =
  List.iter
    (fun c ->
      List.iter
        (fun rel ->
          if Index.entries_for index rel = [] then
            ignore (Index.add index ~table_name:rel ~strategy ()))
        (Formula.relations c))
    constraints

(** Check using the SQL engine only (the baseline side of every
    BDD-vs-SQL figure). *)
let check_sql db constraint_ =
  let typing = Typing.infer db constraint_ in
  let t0 = Fcv_util.Timer.now () in
  let violated = To_sql.violated db typing constraint_ in
  ((if violated then Violated else Satisfied), ms_since t0)
