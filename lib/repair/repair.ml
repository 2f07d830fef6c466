(** Repair planners — see repair.mli for the contract.  The exact
    planner implements the P side of the Livshits–Kimelfeld
    cardinality-repair dichotomy (lhs-chain FD sets) by
    per-equivalence-class max-keep recursion seeded off the violation
    cubes; the greedy planner is the general-case blame loop over
    restrict-and-count scores; the brute planner is the tests'
    reference minimum. *)

module R = Fcv_relation
module T = Fcv_util.Telemetry
module F = Core.Formula

type strategy = Exact | Greedy | Brute

let strategy_name = function Exact -> "exact" | Greedy -> "greedy" | Brute -> "brute"

let strategy_of_string = function
  | "exact" -> Ok Exact
  | "greedy" -> Ok Greedy
  | "brute" -> Ok Brute
  | s -> Error (Printf.sprintf "unknown repair strategy %S (exact|greedy|brute)" s)

exception Not_tractable of string

let not_tractable fmt = Printf.ksprintf (fun s -> raise (Not_tractable s)) fmt

type deletion = {
  table : string;
  row : R.Value.t list;
  cells : string list;
  blame : float;
}

type plan = {
  strategy : strategy;
  deletions : deletion list;
  violated_before : int;
  violated_after : int;
  witnesses_before : float;
  witnesses_after : float;
  complete : bool;
  elapsed_ms : float;
}

(* -- the scratch copy ------------------------------------------------------- *)

(* Deep clone: re-interning each dictionary's values in code order
   reproduces the source's codes, so coded rows copy verbatim and any
   plan computed on the clone names the same values as the original.
   (Index_io.load_string deliberately SHARES the db — unusable for a
   read-only planner.) *)
let clone_db db =
  let copy = R.Database.create () in
  List.iter
    (fun dname ->
      let dst = R.Database.domain copy dname in
      List.iter
        (fun v -> ignore (R.Dict.intern dst v))
        (R.Dict.to_list (R.Database.domain db dname)))
    (R.Database.domain_names db);
  List.iter
    (fun tname ->
      let src = R.Database.table db tname in
      let attrs =
        Array.to_list
          (Array.map
             (fun a -> (a.R.Schema.name, a.R.Schema.domain))
             (R.Table.schema src))
      in
      let dst = R.Database.create_table copy ~name:tname ~attrs in
      R.Table.iter src (fun row -> R.Table.insert_coded dst (Array.copy row)))
    (R.Database.table_names db);
  copy

type scratch = { db : R.Database.t; index : Core.Index.t }

let scratch ?(max_nodes = 0) db formulas =
  let db = clone_db db in
  let index = Core.Index.create ~max_nodes db in
  Core.Checker.ensure_indices index formulas;
  { db; index }

(* (violated constraints, total violation witnesses).  Spec-aware: a
   soft constraint counts as violated only while its rate is over
   threshold ({!Core.Checker.check}).  A violated bare
   existential has no finite witness; it still counts one. *)
let measure s specs =
  let violated = ref 0 and wit = ref 0. in
  List.iter
    (fun spec ->
      let r = Core.Checker.check s.index spec in
      if r.Core.Checker.outcome = Core.Checker.Violated then begin
        incr violated;
        match Core.Violations.count s.index spec.F.formula with
        | Some c -> wit := !wit +. c
        | None -> wit := !wit +. 1.
      end)
    specs;
  (!violated, !wit)

let delete s ~table row =
  ignore (Core.Index.delete s.index ~table_name:table row)

(* -- exact: the dichotomy's P side ------------------------------------------ *)

(* Maximum sub-multiset of [rows] satisfying the FD list (positions
   into the rows; the lhs sets form a chain ordered by inclusion).
   Group by the first lhs; within a group every kept row must agree on
   the rhs, so partition by rhs code, solve the remaining FDs inside
   each partition independently (their lhs refine this one), and keep
   the best partition — ties broken toward the smaller rhs code so
   plans are deterministic. *)
let rec max_keep rows = function
  | [] -> rows
  | (lhs_pos, rhs_pos) :: rest ->
    let groups = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun row ->
        let key = List.map (fun p -> row.(p)) lhs_pos in
        match Hashtbl.find_opt groups key with
        | None ->
          Hashtbl.add groups key (ref [ row ]);
          order := key :: !order
        | Some l -> l := row :: !l)
      rows;
    List.concat_map
      (fun key ->
        let grp = List.rev !(Hashtbl.find groups key) in
        let parts = Hashtbl.create 4 in
        let porder = ref [] in
        List.iter
          (fun row ->
            let k = row.(rhs_pos) in
            match Hashtbl.find_opt parts k with
            | None ->
              Hashtbl.add parts k (ref [ row ]);
              porder := k :: !porder
            | Some l -> l := row :: !l)
          grp;
        let scored =
          List.map
            (fun k -> (k, max_keep (List.rev !(Hashtbl.find parts k)) rest))
            (List.rev !porder)
        in
        let better (k1, kept1) (k2, kept2) =
          let n1 = List.length kept1 and n2 = List.length kept2 in
          if n1 <> n2 then n1 > n2 else k1 < k2
        in
        match
          List.fold_left
            (fun acc cand ->
              match acc with
              | None -> Some cand
              | Some best -> if better cand best then Some cand else Some best)
            None scored
        with
        | Some (_, kept) -> kept
        | None -> [])
      (List.rev !order)

(* Recognise every constraint as an FD and check tractability: per
   relation, the lhs attribute sets must form a chain under
   inclusion. *)
let recognize_chain db formulas =
  let fds =
    List.map
      (fun f ->
        match Core.Fd_check.recognize_fd db f with
        | Some (rel, lhs, rhs) -> (rel, (lhs, rhs))
        | None ->
          not_tractable "constraint is not FD-shaped: %s" (F.to_string f))
      formulas
  in
  let rels = List.sort_uniq compare (List.map fst fds) in
  List.map
    (fun rel ->
      let pairs = List.filter_map (fun (r, p) -> if r = rel then Some p else None) fds in
      let sorted =
        List.sort
          (fun (l1, _) (l2, _) -> compare (List.length l1, l1) (List.length l2, l2))
          pairs
      in
      let rec chain = function
        | (l1, _) :: ((l2, _) :: _ as rest) ->
          if List.for_all (fun a -> List.mem a l2) l1 then chain rest
          else
            not_tractable
              "FD lhs sets {%s} and {%s} on %s do not form a chain — the dichotomy's \
               NP-hard side; use the greedy planner"
              (String.concat "," l1) (String.concat "," l2) rel
        | _ -> ()
      in
      chain sorted;
      (rel, sorted))
    rels

(* Minimum deletion set, per relation: find the lhs values of the
   first (coarsest) FD that any FD's violation cubes hit, materialise
   only those equivalence classes, and keep the max-keep complement.
   FDs are denial constraints, so deletions never create new
   violations and one pass suffices. *)
let exact s formulas =
  let per_rel = recognize_chain s.db formulas in
  List.concat_map
    (fun (rel, fds) ->
      let table = R.Database.table s.db rel in
      let schema = R.Table.schema table in
      let pos = R.Schema.position schema in
      let first_lhs = fst (List.hd fds) in
      let first_pos = List.map pos first_lhs in
      let hot = Hashtbl.create 16 in
      List.iter
        (fun (lhs, rhs) ->
          (* positions of the first lhs inside this (superset) lhs *)
          let proj =
            List.map
              (fun a ->
                let rec idx i = function
                  | [] -> assert false (* chain: first_lhs ⊆ lhs *)
                  | x :: _ when x = a -> i
                  | _ :: tl -> idx (i + 1) tl
                in
                (idx 0 lhs, pos a))
              first_lhs
          in
          List.iter
            (fun values ->
              let key =
                List.map
                  (fun (i, col) ->
                    match R.Dict.code (R.Table.dict table col) (List.nth values i) with
                    | Some c -> c
                    | None -> assert false (* decoded from this very dict *))
                  proj
              in
              Hashtbl.replace hot key ())
            (Core.Fd_check.violating_lhs s.index ~table_name:rel ~lhs ~rhs:[ rhs ]))
        fds;
      if Hashtbl.length hot = 0 then []
      else begin
        let hot_rows =
          List.filter
            (fun row -> Hashtbl.mem hot (List.map (fun p -> row.(p)) first_pos))
            (R.Table.to_list table)
        in
        let spec = List.map (fun (lhs, rhs) -> (List.map pos lhs, pos rhs)) fds in
        let kept = max_keep hot_rows spec in
        let kcount = Hashtbl.create 16 in
        List.iter
          (fun row ->
            let k = Array.to_list row in
            Hashtbl.replace kcount k
              (1 + Option.value (Hashtbl.find_opt kcount k) ~default:0))
          kept;
        List.filter_map
          (fun row ->
            let k = Array.to_list row in
            match Hashtbl.find_opt kcount k with
            | Some n when n > 0 ->
              Hashtbl.replace kcount k (n - 1);
              None
            | _ -> Some (rel, row))
          hot_rows
      end)
    per_rel
  |> List.sort (fun (t1, r1) (t2, r2) -> compare (t1, Array.to_list r1) (t2, Array.to_list r2))

(* -- greedy: the general-case blame loop ------------------------------------ *)

(* Repeatedly delete the whole supporting row-set of the grounded
   positive-atom pattern whose removal kills the most remaining
   violation witnesses (kill counts summed across violated
   constraints; ties toward the smallest row-set, then the smallest
   (table, pattern) — row-level moves can waste deletions on a
   duplicated projection, pattern-level moves cannot).  Loops until
   clean, the budget runs out, or no violated constraint yields a
   supported pattern (a violated bare existential needs insertions,
   not deletions).  Terminates: every round removes at least one
   existing row.

   Spec-aware: the violated re-filter uses {!Core.Checker.check},
   so a soft constraint drops out of the loop — and stops costing
   deletions — as soon as its violation rate clears its threshold,
   rather than being driven all the way to zero witnesses. *)
let greedy ?(max_deletions = max_int) ~witness_limit s specs =
  let deletions = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let violated =
      List.filter_map
        (fun spec ->
          if
            (Core.Checker.check s.index spec).Core.Checker.outcome
            = Core.Checker.Violated
          then Some spec.F.formula
          else None)
        specs
    in
    if violated = [] || List.length !deletions >= max_deletions then continue_ := false
    else begin
      (* candidate patterns, kill counts summed across constraints *)
      let moves = Hashtbl.create 32 in
      List.iter
        (fun f ->
          match Core.Violations.analyze s.index f with
          | None -> ()
          | Some a ->
            List.iter
              (fun p ->
                if p.Core.Violations.p_rows <> [] then begin
                  let key =
                    ( p.Core.Violations.p_table,
                      Array.to_list p.Core.Violations.p_pattern )
                  in
                  let kills =
                    Fcv_bdd.Nat.add p.Core.Violations.p_kills
                      (match Hashtbl.find_opt moves key with
                      | Some (_, k) -> k
                      | None -> Fcv_bdd.Nat.zero)
                  in
                  Hashtbl.replace moves key (p.Core.Violations.p_rows, kills)
                end)
              (Core.Violations.patterns ~limit:witness_limit a);
            Core.Violations.release a)
        violated;
      let better (k1, (r1, s1)) (k2, (r2, s2)) =
        let c = Fcv_bdd.Nat.compare s1 s2 in
        if c <> 0 then c > 0
        else
          let n1 = List.length r1 and n2 = List.length r2 in
          if n1 <> n2 then n1 < n2 else k1 < k2
      in
      match
        Hashtbl.fold
          (fun key v acc ->
            match acc with
            | Some best when better best (key, v) -> acc
            | _ -> Some (key, v))
          moves None
      with
      | None -> continue_ := false
      | Some ((table, _), (rows, kills)) ->
        let budget = max_deletions - List.length !deletions in
        let take = List.filteri (fun i _ -> i < budget) rows in
        List.iter
          (fun row ->
            delete s ~table row;
            deletions := (table, row, Fcv_bdd.Nat.to_float kills) :: !deletions)
          take;
        if List.length take < List.length rows then continue_ := false
    end
  done;
  List.rev !deletions

(* -- brute force: the tests' reference minimum ------------------------------ *)

let rec combos k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest -> List.map (fun c -> x :: c) (combos (k - 1) rest) @ combos k rest

(* Candidate pool: every tuple participating in any violated
   constraint's witnesses. *)
let candidates ~witness_limit s formulas =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun f ->
      match Core.Violations.analyze s.index f with
      | None -> ()
      | Some a ->
        List.iter
          (fun (t, row) -> Hashtbl.replace seen (t, Array.to_list row) ())
          (Core.Violations.participants ~limit:witness_limit a);
        Core.Violations.release a)
    formulas;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  |> List.map (fun (t, row) -> (t, Array.of_list row))

(* Exhaustive minimum: subsets of the candidate pool by increasing
   size, each checked on a fresh clone with the naive evaluator. *)
let brute ?(max_deletions = max_int) ~witness_limit s formulas =
  let cands = candidates ~witness_limit s formulas in
  if List.length cands > 16 then
    invalid_arg
      (Printf.sprintf
         "Repair: the brute-force planner is a tiny-instance reference (%d candidate \
          tuples; limit 16)"
         (List.length cands));
  let check_subset subset =
    let db = clone_db s.db in
    List.for_all (fun (t, row) -> R.Table.delete_coded (R.Database.table db t) row) subset
    && List.for_all (fun f -> Core.Naive_eval.holds db f) formulas
  in
  let cap = min max_deletions (List.length cands) in
  let rec go k =
    if k > cap then []
    else
      match List.find_opt check_subset (combos k cands) with
      | Some subset -> subset
      | None -> go (k + 1)
  in
  go 0

(* -- the planner ------------------------------------------------------------ *)

(* Blame of each tuple against the PRE-repair state, summed across
   constraints — the exact/brute planners' report column.  NOT the
   same quantity as the greedy loop's selection score:
   {!Core.Violations.blame} is an UPPER BOUND on the witnesses killed
   by deleting the row (rows sharing the row's pattern projection
   share full credit), while greedy records the exact pattern kill
   count ({!Core.Violations.patterns}' [p_kills]) at selection time.
   Never compare the [deletion.blame] column across planners. *)
let blame_map s formulas tuples =
  let totals = Hashtbl.create 64 in
  List.iter
    (fun f ->
      match Core.Violations.analyze s.index f with
      | None -> ()
      | Some a ->
        List.iter
          (fun (table, row) ->
            let b = Core.Violations.blame a ~table ~row in
            (* blame is a count read off restrict-and-count: any
               negative or non-finite value means the index and the
               analyzer disagree about the violation space *)
            assert (b >= 0. && Float.is_finite b);
            if b <> 0. then begin
              let key = (table, Array.to_list row) in
              Hashtbl.replace totals key
                (b +. Option.value (Hashtbl.find_opt totals key) ~default:0.)
            end)
          tuples;
        Core.Violations.release a)
    formulas;
  fun table row ->
    Option.value (Hashtbl.find_opt totals (table, Array.to_list row)) ~default:0.

let plan_specs ?(strategy = Greedy) ?max_deletions ?max_nodes ?(witness_limit = 256) db
    (specs : F.spec list) =
  T.with_span "repair.plan" @@ fun () ->
  let t0 = Fcv_util.Timer.now () in
  let formulas = List.map (fun (sp : F.spec) -> sp.F.formula) specs in
  let s = scratch ?max_nodes db formulas in
  let violated_before, witnesses_before = measure s specs in
  let deletions =
    match strategy with
    | Greedy -> greedy ?max_deletions ~witness_limit s specs
    | Exact | Brute ->
      (* the exact and brute planners target zero violations: their
         optimality arguments are about full repairs, so thresholds
         are ignored here (every spec is driven clean) — though the
         before/after measurements above stay spec-aware *)
      let tuples =
        if strategy = Exact then exact s formulas
        else brute ?max_deletions ~witness_limit s formulas
      in
      let tuples =
        match max_deletions with
        | Some n -> List.filteri (fun i _ -> i < n) tuples
        | None -> tuples
      in
      let blame_of = blame_map s formulas tuples in
      List.map
        (fun (t, row) ->
          delete s ~table:t row;
          (t, row, blame_of t row))
        tuples
  in
  let violated_after, witnesses_after = measure s specs in
  let deletions =
    List.map
      (fun (t, row, b) ->
        let values = Array.to_list (R.Table.decode (R.Database.table s.db t) row) in
        { table = t; row = values; cells = List.map R.Value.to_string values; blame = b })
      deletions
  in
  if T.enabled () then begin
    T.incr (T.counter "repair.plans");
    T.incr ~by:(List.length deletions) (T.counter "repair.deletions");
    if violated_after > 0 then T.incr (T.counter "repair.incomplete")
  end;
  {
    strategy;
    deletions;
    violated_before;
    violated_after;
    witnesses_before;
    witnesses_after;
    complete = violated_after = 0;
    elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000.;
  }

let plan ?strategy ?max_deletions ?max_nodes ?witness_limit db formulas =
  plan_specs ?strategy ?max_deletions ?max_nodes ?witness_limit db
    (List.map F.hard formulas)

let apply_to plan db =
  List.fold_left
    (fun acc d ->
      let table = R.Database.table db d.table in
      let coded =
        List.mapi
          (fun j v -> R.Dict.code (R.Table.dict table j) v)
          d.row
      in
      if List.for_all Option.is_some coded then
        let row = Array.of_list (List.map Option.get coded) in
        if R.Table.delete_coded table row then acc + 1 else acc
      else acc)
    0 plan.deletions

(* -- wire shape ------------------------------------------------------------- *)

let deletion_json d =
  T.Obj
    [
      ("table", T.String d.table);
      ("row", T.List (List.map (fun c -> T.String c) d.cells));
      ("blame", T.Float d.blame);
    ]

let plan_json p =
  T.Obj
    [
      ("strategy", T.String (strategy_name p.strategy));
      ("deletions", T.List (List.map deletion_json p.deletions));
      ("violated_before", T.Int p.violated_before);
      ("violated_after", T.Int p.violated_after);
      ("witnesses_before", T.Float p.witnesses_before);
      ("witnesses_after", T.Float p.witnesses_after);
      ("complete", T.Bool p.complete);
      ("ms", T.Float p.elapsed_ms);
    ]
