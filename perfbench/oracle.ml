(* The correctness oracle: expected verdicts computed without the daemon.

   Hard constraints are decided by the SQL violation query
   ([Core.Checker.check_sql]).  Soft constraints get exact binding counts
   from the same SQL engine — distinct satisfying bindings of the
   hypothesis, distinct violating bindings of the violation query — and
   the threshold test on those integers.  No BDD, index, planner, monitor
   or server code runs here. *)

module R = Fcv_relation
module F = Core.Formula

type verdict = { violated : bool; counts : (int * int) option  (** violations, bindings *) }

(* A textual mutation replayed on a plain database; returns whether the
   row was there (deletes) — the acked-state bookkeeping needs it. *)
let apply db (m : Workload.mutation) =
  let table = R.Database.table db m.Workload.table in
  let values = Array.of_list (List.map R.Value.of_string m.Workload.row) in
  if m.Workload.insert then begin
    ignore (R.Table.insert table values);
    true
  end
  else
    let codes = Array.mapi (fun i v -> R.Dict.code (R.Table.dict table i) v) values in
    if Array.exists Option.is_none codes then false
    else R.Table.delete_coded table (Array.map Option.get codes)

let distinct_projected rows cols xs =
  let pos = List.map (fun x ->
      let rec find i = function
        | [] -> invalid_arg ("oracle: variable not bound by the plan: " ^ x)
        | y :: _ when y = x -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 cols) xs
  in
  let seen = Hashtbl.create 1024 in
  List.iter (fun row -> Hashtbl.replace seen (List.map (fun p -> row.(p)) pos) ()) rows;
  Hashtbl.length seen

let soft_counts db formula =
  let xs, body = F.strip_foralls formula in
  let typing = Core.Typing.infer db formula in
  let hypothesis = match body with F.Implies (h, _) -> h | _ -> F.True in
  let total =
    match hypothesis with
    | F.True -> 1
    | h ->
      let t = Core.To_sql.translate db typing (Core.Rewrite.nnf h) in
      distinct_projected (Fcv_sql.Exec.run t.Core.To_sql.plan) t.Core.To_sql.vars xs
  in
  let plan, cols, _ = Core.To_sql.violation_plan db typing formula in
  (distinct_projected (Fcv_sql.Exec.run plan) cols xs, total)

let verdict db source =
  let spec = Core.Fol_parser.spec_of_string source in
  if F.is_hard spec then
    { violated = fst (Core.Checker.check_sql db spec.F.formula) = Core.Checker.Violated; counts = None }
  else
    let v, t = soft_counts db spec.F.formula in
    let clears =
      Core.Checker.clears ~threshold:spec.F.threshold ~violations:(Fcv_bdd.Nat.of_int v)
        ~total:(Fcv_bdd.Nat.of_int t)
    in
    { violated = not clears; counts = Some (v, t) }

let vector db constraints = Array.of_list (List.map (verdict db) constraints)

(* Expected verdict vectors, one per validate slot of a cycle, from
   replaying the first [cycles] cycles over [db] (the CSV-loaded base):
   every cycle must reproduce the first cycle's vectors, which is what
   lets the client check a stream of any length against them. *)
let expected ?(cycles = 2) (w : Workload.t) db =
  let slots = Array.make w.Workload.validates_per_cycle None in
  let base = vector db w.Workload.constraints in
  for k = 0 to cycles - 1 do
    List.iter
      (function
        | Workload.Batch muts ->
          Array.iter (fun m -> if not (apply db m) then failwith "oracle: delete of an absent row") muts
        | Workload.Validate i -> (
          let v = vector db w.Workload.constraints in
          match slots.(i) with
          | None -> slots.(i) <- Some v
          | Some v0 when v0 = v -> ()
          | Some _ ->
            failwith (Printf.sprintf "oracle: cycle %d changes the verdicts of validate slot %d" k i)))
      (w.Workload.cycle k)
  done;
  (base, Array.map Option.get slots)
