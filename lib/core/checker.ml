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
      evaluator ({!Naive_eval}). *)

module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module T = Fcv_util.Telemetry

type method_used = Bdd | Sql | Naive

let method_name = function Bdd -> "BDD" | Sql -> "SQL" | Naive -> "naive"

(** How to check: [Auto] is the paper's thresholding (BDD first, SQL
    on budget trip); [Force_bdd] is the same guarded pipeline kept
    distinct for planner probes and ablations; [Force_sql] goes
    straight to the violation query, paying no abandoned attempt. *)
type strategy = Auto | Force_bdd | Force_sql

let strategy_name = function Auto -> "auto" | Force_bdd -> "bdd" | Force_sql -> "sql"

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
          ({!check_spec} with threshold < 1), [None] on every hard
          check — the classical path is byte-for-byte unchanged *)
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

(* Post-check telemetry: per-check outcome event with the kernel-stat
   deltas (apply-cache hit rate, nodes allocated, peak) plus the
   method counters; [before] is the manager snapshot taken on entry. *)
let tel_check_done ~before ~mgr ~method_used ~outcome ~elapsed_ms ~overhead_ms =
  if T.enabled () then begin
    T.incr (T.counter "checker.checks");
    (match method_used with
    | Bdd -> ()
    | Sql -> T.incr (T.counter "checker.fallbacks.sql")
    | Naive -> T.incr (T.counter "checker.fallbacks.naive"));
    let after = M.stats mgr in
    T.observe (T.histogram "checker.elapsed_ms") elapsed_ms;
    T.event "check.done"
      [
        ("method", T.String (method_name method_used));
        ("outcome", T.String (match outcome with Satisfied -> "satisfied" | Violated -> "violated"));
        ("elapsed_ms", T.Float elapsed_ms);
        ("bdd_overhead_ms", T.Float overhead_ms);
        ("cache_hit_rate", T.Float (M.cache_hit_rate ~before after));
        ("nodes_allocated", T.Int (after.M.unique_misses - before.M.unique_misses));
        ("peak_nodes", T.Int after.M.peak_nodes);
        ("budget_trips", T.Int (after.M.budget_trips - before.M.budget_trips));
      ]
  end

(** Check one constraint.  [index] supplies the BDD manager, node
    budget and logical indices; every relation mentioned by the
    constraint must have a covering index (see {!ensure_indices}). *)
let check ?(pipeline = default_pipeline) ?(strategy = Auto) index constraint_ =
  if not (Formula.is_closed constraint_) then
    invalid_arg "Checker.check: constraint must be a closed formula";
  T.with_span "check" @@ fun () ->
  let kstats0 = M.stats (Index.mgr index) in
  let db = index.Index.db in
  let typing = T.with_span "typing" (fun () -> Typing.infer db constraint_) in
  match strategy with
  | Force_sql ->
    (* planned straight to the violation query: no BDD attempt, so
       neither abandoned-attempt overhead nor a "fallback" is paid *)
    let t0 = Fcv_util.Timer.now () in
    let outcome, method_used =
      T.with_span "fallback" (fun () -> fallback db typing constraint_)
    in
    let elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
    tel_check_done ~before:kstats0 ~mgr:(Index.mgr index) ~method_used ~outcome
      ~elapsed_ms ~overhead_ms:0.;
    {
      outcome;
      method_used;
      elapsed_ms;
      bdd_overhead_ms = 0.;
      fallback_ms = 0.;
      rewritten = constraint_;
      check = Rewrite.Check_valid;
      rate = None;
    }
  | Auto | Force_bdd ->
  let fd_fast_path () =
    if not pipeline.use_fd_fast_path then None
    else
      match Fd_check.recognize_fd db constraint_ with
      | Some (table_name, lhs, rhs) -> (
        let schema = Fcv_relation.Table.schema (Fcv_relation.Database.table db table_name) in
        let needed = List.map (Fcv_relation.Schema.position schema) (rhs :: lhs) in
        match Index.find_covering index ~table_name ~needed with
        | Some _ -> (
          let t0 = Fcv_util.Timer.now () in
          match T.with_span "fd_fast_path" (fun () -> Fd_check.fd_holds index ~table_name ~lhs ~rhs:[ rhs ]) with
          | holds ->
            let outcome = if holds then Satisfied else Violated in
            let elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
            tel_check_done ~before:kstats0 ~mgr:(Index.mgr index) ~method_used:Bdd
              ~outcome ~elapsed_ms ~overhead_ms:0.;
            Some
              {
                outcome;
                method_used = Bdd;
                elapsed_ms;
                bdd_overhead_ms = 0.;
                fallback_ms = 0.;
                rewritten = constraint_;
                check = Rewrite.Check_valid;
                rate = None;
              }
          (* past the node budget (or out of level space), fall through
             to the generic path, which carries the SQL fallback *)
          | exception (M.Node_limit _ | M.Level_limit _) -> None)
        | None -> None)
      | None -> None
  in
  match fd_fast_path () with
  | Some result -> result
  | None ->
  let t0 = Fcv_util.Timer.now () in
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
  | outcome ->
    let elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
    tel_check_done ~before:kstats0 ~mgr:(Index.mgr index) ~method_used:Bdd
      ~outcome ~elapsed_ms ~overhead_ms:0.;
    {
      outcome;
      method_used = Bdd;
      elapsed_ms;
      bdd_overhead_ms = 0.;
      fallback_ms = 0.;
      rewritten;
      check = check_mode;
      rate = None;
    }
  | exception (M.Node_limit _ | M.Level_limit _) ->
    let overhead = (Fcv_util.Timer.now () -. t0) *. 1000. in
    let t1 = Fcv_util.Timer.now () in
    let outcome, method_used =
      T.with_span "fallback" (fun () -> fallback db typing constraint_)
    in
    let elapsed_ms = (Fcv_util.Timer.now () -. t1) *. 1000. in
    if T.enabled () then
      T.event "check.fallback"
        [
          ("method", T.String (method_name method_used));
          ("bdd_overhead_ms", T.Float overhead);
          ("fallback_ms", T.Float elapsed_ms);
        ];
    tel_check_done ~before:kstats0 ~mgr:(Index.mgr index) ~method_used
      ~outcome ~elapsed_ms ~overhead_ms:overhead;
    {
      outcome;
      method_used;
      elapsed_ms;
      bdd_overhead_ms = overhead;
      fallback_ms = elapsed_ms;
      rewritten;
      check = check_mode;
      rate = None;
    }

(* -- approximate (thresholded) checks --------------------------------------- *)

let ratio_of ~violations ~total =
  if Fcv_bdd.Nat.is_zero total then 0.
  else Fcv_bdd.Nat.to_float violations /. Fcv_bdd.Nat.to_float total

(** Exact threshold test: does the satisfied fraction reach
    [threshold]?  [threshold] is read off its float representation as
    the dyadic rational P/2^k (frexp), and the comparison
    [(total − violations)·2^k ≥ P·total] runs entirely in {!Fcv_bdd.Nat}
    arithmetic — no float ever touches the counts, so a near-threshold
    count cannot round across the verdict boundary (the [2^53]
    landmine of the float sat-counts).  A zero [total] holds
    vacuously. *)
let clears ~threshold ~violations ~total =
  let module N = Fcv_bdd.Nat in
  if N.is_zero total then true
  else begin
    (* threshold = mp·2^ep with mp ∈ [0.5, 1); mp·2^53 is an integer *)
    let mp, ep = Float.frexp threshold in
    let p = N.of_int (int_of_float (Float.ldexp mp 53)) in
    let k = 53 - ep in
    let satisfied = N.sub total violations in
    N.compare (N.shift_left satisfied k) (N.mul p total) >= 0
  end

(* The soft-check pipeline: exact violation/support counts (FD
   fast path when the shape matches and an index covers it, the
   general violation-BDD analyzer otherwise), the exact threshold
   comparison, and a naive full-recount fallback when the BDD attempt
   trips the node budget. *)
let check_soft ~pipeline ~strategy index (spec : Formula.spec) =
  let threshold = spec.Formula.threshold in
  let c = spec.Formula.formula in
  if not (Formula.is_closed c) then
    invalid_arg "Checker.check_spec: constraint must be a closed formula";
  T.with_span "check_soft" @@ fun () ->
  let kstats0 = M.stats (Index.mgr index) in
  let db = index.Index.db in
  let typing = T.with_span "typing" (fun () -> Typing.infer_spec db spec) in
  let t0 = Fcv_util.Timer.now () in
  let build ?elapsed_ms ~counts:(violations, total) ~method_used ~overhead ~fallback_ms ()
      =
    let outcome = if clears ~threshold ~violations ~total then Satisfied else Violated in
    let elapsed_ms =
      match elapsed_ms with
      | Some e -> e
      | None -> (Fcv_util.Timer.now () -. t0) *. 1000.
    in
    tel_check_done ~before:kstats0 ~mgr:(Index.mgr index) ~method_used ~outcome
      ~elapsed_ms ~overhead_ms:overhead;
    {
      outcome;
      method_used;
      elapsed_ms;
      bdd_overhead_ms = overhead;
      fallback_ms;
      rewritten = c;
      check = Rewrite.Check_valid;
      rate = Some { violations; total; ratio = ratio_of ~violations ~total; threshold };
    }
  in
  let naive_counts () =
    let v, t = T.with_span "fallback" (fun () -> Naive_eval.soft_counts ~typing db c) in
    (Fcv_bdd.Nat.of_int v, Fcv_bdd.Nat.of_int t)
  in
  match strategy with
  | Force_sql ->
    (* there is no SQL form of the rate query: a soft constraint
       planned to SQL recounts naively, up front *)
    build ~counts:(naive_counts ()) ~method_used:Naive ~overhead:0. ~fallback_ms:0. ()
  | Auto | Force_bdd -> (
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
    | Some counts -> build ~counts ~method_used:Bdd ~overhead:0. ~fallback_ms:0. ()
    | None ->
      (* no leading ∀-block to witness: 0/1 semantics off the plain
         verdict (rate 1 when violated, 0 when satisfied — the
         outcome is unchanged for any threshold in (0, 1]) *)
      let r = check ~pipeline ~strategy index c in
      let module N = Fcv_bdd.Nat in
      let violations = if r.outcome = Violated then N.one else N.zero in
      {
        r with
        rate =
          Some
            {
              violations;
              total = N.one;
              ratio = (if r.outcome = Violated then 1. else 0.);
              threshold;
            };
      }
    | exception (M.Node_limit _ | M.Level_limit _) ->
      let overhead = (Fcv_util.Timer.now () -. t0) *. 1000. in
      let t1 = Fcv_util.Timer.now () in
      let counts = naive_counts () in
      let fallback_ms = (Fcv_util.Timer.now () -. t1) *. 1000. in
      if T.enabled () then
        T.event "check.fallback"
          [
            ("method", T.String (method_name Naive));
            ("bdd_overhead_ms", T.Float overhead);
            ("fallback_ms", T.Float fallback_ms);
          ];
      build ~elapsed_ms:fallback_ms ~counts ~method_used:Naive ~overhead ~fallback_ms ())

(** Check one constraint spec.  Hard specs ([threshold = 1.0]) take
    exactly the {!check} path — verdict, method choice and planner
    behavior are unchanged — and report no rate.  Soft specs compute
    exact violation/support counts over the violation BDD (or the FD
    projection counts) and compare the rate against the threshold in
    arbitrary precision; [result.rate] carries the measurement. *)
let check_spec ?(pipeline = default_pipeline) ?(strategy = Auto) index
    (spec : Formula.spec) =
  if Formula.is_hard spec then check ~pipeline ~strategy index spec.Formula.formula
  else check_soft ~pipeline ~strategy index spec

(* -- parallel scheduling: cost estimates and task granularity --------------- *)

type granularity = {
  batch_under_ms : float;
  max_batch : int;
  split_over_ms : float;
  max_parts : int;
}

let default_granularity =
  { batch_under_ms = 5.0; max_batch = 8; split_over_ms = 250.0; max_parts = 8 }

(** Estimate the cost of checking [f] against [index], in rough
    milliseconds, from index statistics alone: BDD node counts of the
    entries covering each mentioned relation plus a per-atom term.
    Only the {e relative} order matters (expensive checks are
    scheduled first); callers with run history (the monitor's
    per-constraint telemetry) should prefer measured averages. *)
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

(* Merge the part results of a split constraint back into one result:
   satisfied iff every conjunct is.  [rewritten]/[check] come from the
   first part (there is no single compiled formula for a merged
   verdict); times are summed — the work actually done. *)
let merge_parts = function
  | [] -> invalid_arg "Checker.merge_parts: no parts"
  | first :: _ as rs ->
    {
      outcome =
        (if List.for_all (fun r -> r.outcome = Satisfied) rs then Satisfied else Violated);
      method_used =
        (if List.for_all (fun r -> r.method_used = Bdd) rs then Bdd
         else if List.exists (fun r -> r.method_used = Naive) rs then Naive
         else Sql);
      elapsed_ms = List.fold_left (fun acc r -> acc +. r.elapsed_ms) 0. rs;
      bdd_overhead_ms = List.fold_left (fun acc r -> acc +. r.bdd_overhead_ms) 0. rs;
      fallback_ms = List.fold_left (fun acc r -> acc +. r.fallback_ms) 0. rs;
      rewritten = first.rewritten;
      check = first.check;
      (* only hard constraints go through the conjunct splitter *)
      rate = None;
    }

(** Check a batch against a live pool: every relation each constraint
    mentions must already be indexed in the replica set's master (the
    snapshot is what workers hydrate from, so indices built after
    {!Replica.prepare} would be invisible).  Results come back in
    input order; a failing check fails the whole batch, like the
    sequential [List.map] would.

    Scheduling: each constraint's cost is taken from [costs] (measured
    history, milliseconds) or estimated from index statistics; tasks
    execute expensive-first through the pool's claimed-batch scheduler
    ({!Fcv_util.Pool.run_ordered}).  [granularity] adapts task size:
    constraints cheaper than [batch_under_ms] are chunked ([max_batch]
    at a time) so task bookkeeping stops dominating tiny checks, and a
    constraint over [split_over_ms] whose formula splits into
    independent conjuncts ({!split_conjuncts}, up to [max_parts])
    is checked as parallel subformula tasks and merged — same
    outcome by [∀x.(A∧B) ≡ (∀x.A)∧(∀x.B)]. *)
let check_all_pooled ?pipeline ?(granularity = default_granularity) ?costs ?strategies
    ~pool replica constraints =
  Replica.prepare replica;
  if constraints = [] then []
  else begin
    let fs = Array.of_list constraints in
    let n = Array.length fs in
    let master = Replica.master replica in
    let db = master.Index.db in
    let strats =
      match strategies with
      | Some l when List.length l = n -> Array.of_list l
      | Some _ -> invalid_arg "Checker.check_all_pooled: strategies length mismatch"
      | None -> Array.make n Auto
    in
    let costs =
      let given =
        match costs with
        | Some l when List.length l = n -> Array.of_list l
        | Some _ -> invalid_arg "Checker.check_all_pooled: costs length mismatch"
        | None -> Array.make n None
      in
      Array.mapi
        (fun i f ->
          match given.(i) with Some c -> c | None -> cost_estimate master f)
        fs
    in
    (* split plan: parts.(i) has length > 1 only for huge conjunctive
       constraints whose every part still typechecks *)
    let parts =
      Array.mapi
        (fun i f ->
          if costs.(i) < granularity.split_over_ms then [| f |]
          else
            let ps = split_conjuncts f in
            let k = List.length ps in
            let part_ok p =
              Formula.is_closed p
              && match Typing.infer db p with _ -> true | exception Typing.Type_error _ -> false
            in
            if k > 1 && k <= granularity.max_parts && List.for_all part_ok ps then
              Array.of_list ps
            else [| f |])
        fs
    in
    (* task list: (cost, thunk) where a thunk returns per-(constraint,
       part) results; tiny unsplit constraints are chunked greedily in
       input order *)
    let do_check i f () = check ?pipeline ~strategy:strats.(i) (Replica.get replica) f in
    let tasks = ref [] in
    let chunk = ref [] and chunk_cost = ref 0. in
    let flush_chunk () =
      match !chunk with
      | [] -> ()
      | members ->
        let members = List.rev members in
        tasks :=
          ( !chunk_cost,
            fun () -> List.map (fun (i, f) -> (i, 0, do_check i f ())) members )
          :: !tasks;
        chunk := [];
        chunk_cost := 0.
    in
    Array.iteri
      (fun i f ->
        let k = Array.length parts.(i) in
        if k > 1 then begin
          flush_chunk ();
          Array.iteri
            (fun p part ->
              tasks :=
                (costs.(i) /. float_of_int k, fun () -> [ (i, p, do_check i part ()) ])
                :: !tasks)
            parts.(i)
        end
        else if costs.(i) < granularity.batch_under_ms then begin
          chunk := (i, f) :: !chunk;
          chunk_cost := !chunk_cost +. costs.(i);
          if List.length !chunk >= granularity.max_batch then flush_chunk ()
        end
        else begin
          flush_chunk ();
          tasks := (costs.(i), fun () -> [ (i, 0, do_check i f ()) ]) :: !tasks
        end)
      fs;
    flush_chunk ();
    let tasks = Array.of_list (List.rev !tasks) in
    let thunks = Array.map snd tasks in
    (* expensive-first execution order, index tiebreak for determinism *)
    let order = Array.init (Array.length tasks) Fun.id in
    Array.sort
      (fun a b ->
        match compare (fst tasks.(b)) (fst tasks.(a)) with 0 -> compare a b | c -> c)
      order;
    let outs = Fcv_util.Pool.run_ordered pool ~order thunks in
    let per = Array.make n [] in
    Array.iter (List.iter (fun (i, p, r) -> per.(i) <- (p, r) :: per.(i))) outs;
    List.init n (fun i ->
        match per.(i) with
        | [ (_, r) ] -> r
        | prs ->
          merge_parts
            (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) prs)))
  end

(** Check a batch of constraints (the paper's setting: many
    user-defined constraints validated together); returns results in
    order.  [jobs > 1] fans the batch out over that many worker
    domains, each checking against a private replica of [index]
    hydrated from one snapshot — worth it for batches whose combined
    check time dwarfs the snapshot + hydration cost; singleton or
    empty batches always run sequentially.  Verdicts are identical to
    the sequential run (same pipeline, same node budget, same
    fallbacks), only wall-clock differs. *)
let check_all ?pipeline ?(jobs = 1) ?strategies index constraints =
  let n = List.length constraints in
  (match strategies with
  | Some l when List.length l <> n ->
    invalid_arg "Checker.check_all: strategies length mismatch"
  | Some _ | None -> ());
  if jobs <= 1 || n <= 1 then begin
    let strats =
      match strategies with Some l -> Array.of_list l | None -> Array.make n Auto
    in
    List.mapi (fun i f -> check ?pipeline ~strategy:strats.(i) index f) constraints
  end
  else begin
    let pool = Fcv_util.Pool.create ~name:"check" ~jobs:(min jobs n) () in
    Fun.protect
      ~finally:(fun () -> Fcv_util.Pool.shutdown pool)
      (fun () ->
        check_all_pooled ?pipeline ?strategies ~pool (Replica.create index) constraints)
  end

(** Make sure every relation mentioned in [constraints] has a
    full-attribute logical index, building missing ones with
    [strategy] (default Prob-Converge, the paper's recommendation). *)
let ensure_indices ?(strategy = Ordering.Prob_converge) index constraints =
  let needed =
    List.concat_map Formula.relations constraints |> List.sort_uniq compare
  in
  List.iter
    (fun rel ->
      if Index.entries_for index rel = [] then
        ignore (Index.add index ~table_name:rel ~strategy ()))
    needed

(** Check using the SQL engine only (the baseline side of every
    BDD-vs-SQL figure). *)
let check_sql db constraint_ =
  let typing = Typing.infer db constraint_ in
  let t0 = Fcv_util.Timer.now () in
  let violated = To_sql.violated db typing constraint_ in
  let elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
  ((if violated then Violated else Satisfied), elapsed_ms)
