(** Functional-dependency checking directly on a logical index — the
    technique behind the paper's Fig. 5(b) ("testing this constraint
    using BDDs involves projection of suitable attributes to construct
    new BDDs and manipulation of the resulting BDDs").

    The FD  lhs → rhs  holds on R iff

      |π_{lhs ∪ rhs}(R)| = |π_{lhs}(R)|

    and both projections are single [exists] passes over the entry's
    BDD followed by O(|BDD|) model counts — no self-join, no renaming.
    The SQL counterpart is the paper's GROUP BY query
    (SELECT lhs FROM R GROUP BY lhs HAVING COUNT(DISTINCT rhs) > 1). *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
module Sat = Fcv_bdd.Sat

(* Model count of [root] over exactly the given blocks (every other
   manager variable must be out of [root]'s support). *)
let count_over m blocks root =
  let levels =
    List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks |> List.sort compare
  in
  Sat.count_over m root ~levels:(Array.of_list levels)

(** Does [lhs → rhs] (attribute names) hold according to the logical
    index?  Picks a covering entry of [table_name].
    @raise Invalid_argument if no entry covers lhs ∪ rhs. *)
let fd_holds index ~table_name ~lhs ~rhs =
  let table = R.Database.table index.Index.db table_name in
  let schema = R.Table.schema table in
  let lhs_pos = List.map (R.Schema.position schema) lhs in
  let rhs_pos = List.map (R.Schema.position schema) rhs in
  let entry =
    match Index.find_covering index ~table_name ~needed:(lhs_pos @ rhs_pos) with
    | Some e -> e
    | None -> invalid_arg "Fd_check.fd_holds: no covering index"
  in
  let m = Index.mgr index in
  let slot p =
    let rec go i = if entry.Index.attrs.(i) = p then i else go (i + 1) in
    go 0
  in
  let block_of p = entry.Index.blocks.(slot p) in
  let lhs_blocks = List.map block_of lhs_pos in
  let rhs_blocks = List.map block_of rhs_pos in
  let other_blocks =
    Array.to_list entry.Index.blocks
    |> List.filteri (fun i _ ->
           let p = entry.Index.attrs.(i) in
           not (List.mem p lhs_pos || List.mem p rhs_pos))
  in
  let drop blocks root =
    let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks in
    if levels = [] then root else O.exists m levels root
  in
  (* π_{lhs ∪ rhs} then π_{lhs}: the second is a further projection of
     the first, sharing work *)
  let proj_lr = drop other_blocks entry.Index.root in
  let proj_l = drop rhs_blocks proj_lr in
  count_over m (lhs_blocks @ rhs_blocks) proj_lr = count_over m lhs_blocks proj_l

(** Exact [(violating, total)] ordered-pair counts behind a soft FD:
    over the bindings of  ∀ x̄, r1, r2. R(..) ∧ R(..) → r1 = r2  (pairs
    of projected tuples sharing the lhs), [total] is Σ_g n_g² and the
    violating pairs are Σ_g n_g(n_g − 1), where n_g is the rhs
    co-domain size of lhs group g — the same quantities the general
    BDD path and the naive recount produce, computed in arbitrary
    precision.  When the variable order separates the lhs and rhs
    level ranges (either way round — the ordering heuristics float
    small domains up, so an FD's rhs usually sits on top) the sums
    come out of one linear pass over the projection; an interleaved
    order falls back to a restrict-and-count walk per lhs group.
    [None] when no entry covers lhs ∪ rhs (the caller falls back to
    the general path). *)
let fd_soft_counts index ~table_name ~lhs ~rhs =
  let module N = Fcv_bdd.Nat in
  let table = R.Database.table index.Index.db table_name in
  let schema = R.Table.schema table in
  let lhs_pos = List.map (R.Schema.position schema) lhs in
  let rhs_pos = List.map (R.Schema.position schema) rhs in
  match Index.find_covering index ~table_name ~needed:(lhs_pos @ rhs_pos) with
  | None -> None
  | Some entry ->
    let m = Index.mgr index in
    let slot p =
      let rec go i = if entry.Index.attrs.(i) = p then i else go (i + 1) in
      go 0
    in
    let block_of p = entry.Index.blocks.(slot p) in
    let lhs_blocks = List.map block_of lhs_pos in
    let rhs_blocks = List.map block_of rhs_pos in
    let other_blocks =
      Array.to_list entry.Index.blocks
      |> List.filteri (fun i _ ->
             let p = entry.Index.attrs.(i) in
             not (List.mem p lhs_pos || List.mem p rhs_pos))
    in
    let drop blocks root =
      let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks in
      if levels = [] then root else O.exists m levels root
    in
    let proj_lr = drop other_blocks entry.Index.root in
    let lhs_levels =
      List.concat_map (fun b -> Array.to_list b.Fd.levels) lhs_blocks
      |> List.sort compare |> Array.of_list
    in
    let rhs_levels =
      List.concat_map (fun b -> Array.to_list b.Fd.levels) rhs_blocks
      |> List.sort compare |> Array.of_list
    in
    let lhs_above_rhs =
      lhs_levels <> [||] && rhs_levels <> [||]
      && lhs_levels.(Array.length lhs_levels - 1) < rhs_levels.(0)
    in
    let rhs_above_lhs =
      lhs_levels <> [||] && rhs_levels <> [||]
      && rhs_levels.(Array.length rhs_levels - 1) < lhs_levels.(0)
    in
    if lhs_above_rhs then
      (* Every lhs level sits above every rhs level in the order, so
         below the last lhs level each sub-BDD of [proj_lr] is exactly
         one group's rhs set: Σ n_g and Σ n_g² accumulate in ONE
         memoised descent — O(|proj_lr|) Nat operations — instead of a
         restrict-and-count walk from the root per group, which is
         quadratic in practice (groups × shared nodes).  A skipped
         (don't-care) lhs level doubles the number of groups reaching
         a child; a skipped rhs level doubles each group's rhs set,
         i.e. ×2 on Σ n_g and ×4 on Σ n_g². *)
      let nvars = M.nvars m in
      let role = Array.make nvars `Out in
      Array.iter (fun l -> role.(l) <- `Lhs) lhs_levels;
      Array.iter (fun l -> role.(l) <- `Rhs) rhs_levels;
      (* cum_*.(l) = levels of that role with index < l *)
      let cum_lhs = Array.make (nvars + 1) 0 and cum_rhs = Array.make (nvars + 1) 0 in
      for l = 0 to nvars - 1 do
        cum_lhs.(l + 1) <- cum_lhs.(l) + (if role.(l) = `Lhs then 1 else 0);
        cum_rhs.(l + 1) <- cum_rhs.(l) + (if role.(l) = `Rhs then 1 else 0)
      done;
      let lhs_between v w = cum_lhs.(w) - cum_lhs.(v + 1) in
      let rhs_between v w = cum_rhs.(w) - cum_rhs.(v + 1) in
      let var_or_end id = if id = M.zero || id = M.one then nvars else M.var m id in
      (* rhs-region count: models of the subtree over the rhs levels
         at and below its variable *)
      let rc_memo : (int, N.t) Hashtbl.t = Hashtbl.create 256 in
      let rec rc id =
        if id = M.zero then N.zero
        else if id = M.one then N.one
        else
          match Hashtbl.find_opt rc_memo id with
          | Some n -> n
          | None ->
            let v = M.var m id in
            let branch child =
              N.shift_left (rc child) (rhs_between v (var_or_end child))
            in
            let n = N.add (branch (M.low m id)) (branch (M.high m id)) in
            Hashtbl.add rc_memo id n;
            n
      in
      (* lhs-region pair: (Σ n_g, Σ n_g²) over the groups of the
         subtree.  [edge v child] adjusts a child's pair for the
         levels skipped strictly between [v] and the child. *)
      let pair_memo : (int, N.t * N.t) Hashtbl.t = Hashtbl.create 256 in
      let rec pair id =
        match Hashtbl.find_opt pair_memo id with
        | Some p -> p
        | None ->
          let v = M.var m id in
          let a1, a2 = edge v (M.low m id) and b1, b2 = edge v (M.high m id) in
          let p = (N.add a1 b1, N.add a2 b2) in
          Hashtbl.add pair_memo id p;
          p
      and edge v child =
        let w = var_or_end child in
        let nl = lhs_between v w and nr = rhs_between v w in
        if child = M.zero then (N.zero, N.zero)
        else if child <> M.one && role.(M.var m child) = `Lhs then
          let s1, s2 = pair child in
          (N.shift_left s1 (nl + nr), N.shift_left s2 (nl + (2 * nr)))
        else
          (* boundary: one group's rhs set starts here *)
          let n = N.shift_left (rc child) nr in
          (N.shift_left n nl, N.shift_left (N.mul n n) nl)
      in
      let agreeing, total = edge (-1) proj_lr in
      Some (N.sub total agreeing, total)
    else if rhs_above_lhs then begin
      (* The common layout: the ordering heuristics float small
         domains to the top, and an FD's rhs is usually the small
         side, so every rhs level sits ABOVE every lhs level.  Here a
         per-group restrict is worst-case quadratic (each of the
         groups re-walks the whole shared top region), but the
         projection factors the other way: below the last rhs level
         each sub-BDD is the {e lhs set} of one rhs-region path.
         Collect those boundary nodes b with multiplicities c_b (the
         number of rhs assignments reaching b, don't-care rhs levels
         doubling), and then

           n_g      = Σ_{b ∋ g} c_b
           Σ_g n_g  and  Σ_g n_g²   off a per-group accumulator.

         Each boundary set is enumerated once, so the work is linear
         in |π_{lhs∪rhs}| — the same asymptotics as a row scan of the
         deduplicated projection. *)
      let nvars = M.nvars m in
      let role = Array.make nvars `Out in
      Array.iter (fun l -> role.(l) <- `Lhs) lhs_levels;
      Array.iter (fun l -> role.(l) <- `Rhs) rhs_levels;
      let cum_rhs = Array.make (nvars + 1) 0 in
      for l = 0 to nvars - 1 do
        cum_rhs.(l + 1) <- cum_rhs.(l) + (if role.(l) = `Rhs then 1 else 0)
      done;
      let var_or_end id = if id = M.zero || id = M.one then nvars else M.var m id in
      let is_boundary id =
        id = M.one || (id <> M.zero && role.(M.var m id) <> `Rhs)
      in
      (* multiplicity propagation through the rhs region, parents
         before children (ascending level order) *)
      let weights : (int, N.t) Hashtbl.t = Hashtbl.create 64 in
      let pending : (int, N.t) Hashtbl.t = Hashtbl.create 64 in
      let bump tbl id c =
        Hashtbl.replace tbl id
          (match Hashtbl.find_opt tbl id with None -> c | Some c0 -> N.add c0 c)
      in
      let seed id c = if is_boundary id then bump weights id c else bump pending id c in
      let top_skip = cum_rhs.(var_or_end proj_lr) in
      if proj_lr <> M.zero then seed proj_lr (N.shift_left N.one top_skip);
      (* reachable rhs-region nodes, ascending level order, so every
         node's multiplicity is complete before it is expanded *)
      let visited = Hashtbl.create 64 in
      let rhs_nodes = ref [] in
      let rec collect id =
        if id <> M.zero && not (is_boundary id) && not (Hashtbl.mem visited id) then begin
          Hashtbl.add visited id ();
          rhs_nodes := id :: !rhs_nodes;
          collect (M.low m id);
          collect (M.high m id)
        end
      in
      collect proj_lr;
      List.iter
        (fun u ->
          let c = Hashtbl.find pending u in
          let v = M.var m u in
          List.iter
            (fun child ->
              if child <> M.zero then
                seed child
                  (N.shift_left c (cum_rhs.(var_or_end child) - cum_rhs.(v + 1))))
            [ M.low m u; M.high m u ])
        (List.sort (fun a b -> compare (M.var m a) (M.var m b)) !rhs_nodes);
      (* n_g accumulator: enumerate each boundary set's groups once,
         adding the set's multiplicity to each member *)
      let acc : (bool list, N.t) Hashtbl.t = Hashtbl.create 512 in
      Hashtbl.iter
        (fun b c ->
          Sat.fold_cubes m b ~init:() ~f:(fun () cube ->
              Sat.iter_expanded ~levels:lhs_levels cube ~f:(fun values ->
                  bump acc (Array.to_list values) c)))
        weights;
      let agreeing = ref N.zero and total = ref N.zero in
      Hashtbl.iter
        (fun _ n ->
          agreeing := N.add !agreeing n;
          total := N.add !total (N.mul n n))
        acc;
      Some (N.sub !total !agreeing, !total)
    end
    else begin
      (* interleaved order: restrict-and-count per lhs group *)
      let proj_l = drop rhs_blocks proj_lr in
      let total = ref N.zero and agreeing = ref N.zero in
      Sat.fold_cubes m proj_l ~init:() ~f:(fun () cube ->
          Sat.iter_expanded ~levels:lhs_levels cube ~f:(fun values ->
              let fix =
                List.mapi (fun i l -> (l, values.(i))) (Array.to_list lhs_levels)
              in
              let n = Sat.count_restrict_exact m proj_lr ~fix ~levels:rhs_levels in
              total := N.add !total (N.mul n n);
              agreeing := N.add !agreeing n));
      Some (N.sub !total !agreeing, !total)
    end

(** Does the multivalued dependency [lhs →→ mid] hold (with the
    complement side being every other indexed attribute)?  §2 of the
    paper singles out MVDs as the structure good orderings exploit:
    R satisfies lhs →→ mid iff R = π_{lhs∪mid}(R) ⋈ π_{lhs∪rest}(R).
    On BDDs the natural join of the two projections is a single
    conjunction (shared lhs blocks), and the test is canonical-node
    equality with the index root. *)
let mvd_holds index ~table_name ~lhs ~mid =
  let table = R.Database.table index.Index.db table_name in
  let schema = R.Table.schema table in
  let lhs_pos = List.map (R.Schema.position schema) lhs in
  let mid_pos = List.map (R.Schema.position schema) mid in
  List.iter
    (fun p ->
      if List.mem p lhs_pos then
        invalid_arg "Fd_check.mvd_holds: lhs and mid overlap")
    mid_pos;
  let entry =
    match Index.find_covering index ~table_name ~needed:(lhs_pos @ mid_pos) with
    | Some e -> e
    | None -> invalid_arg "Fd_check.mvd_holds: no covering index"
  in
  let m = Index.mgr index in
  let rest_blocks, mid_blocks =
    let classify i =
      let p = entry.Index.attrs.(i) in
      if List.mem p mid_pos then `Mid
      else if List.mem p lhs_pos then `Lhs
      else `Rest
    in
    let all = Array.to_list (Array.mapi (fun i b -> (classify i, b)) entry.Index.blocks) in
    ( List.filter_map (function `Rest, b -> Some b | _ -> None) all,
      List.filter_map (function `Mid, b -> Some b | _ -> None) all )
  in
  let drop blocks root =
    let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks in
    if levels = [] then root else O.exists m levels root
  in
  let proj_mid = drop rest_blocks entry.Index.root in
  let proj_rest = drop mid_blocks entry.Index.root in
  O.band m proj_mid proj_rest = entry.Index.root

(** Recognise a functional-dependency-shaped constraint

      ∀ x̄, r1, r2.  R(..., r1, ...) ∧ R(..., r2, ...) → r1 = r2

    where the two atoms agree position-wise (shared variables or
    wildcards) except at exactly one position carrying r1 / r2.  A
    quantified variable that occurs once in the hypothesis and not in
    the consequent is a payload column — [∀k. R(..k..) ∧ φ → ψ] is
    [(∃k. R(..k..)) ∧ φ → ψ] — and counts as a wildcard, so the key
    FD [R(s, d1, k1) ∧ R(s, d2, k2) → d1 = d2] is recognised too.
    Returns [(relation, lhs attribute names, rhs attribute name)] so
    the checker can route the constraint to the projection-count
    method instead of compiling the self-join. *)
let recognize_fd db formula =
  let open Formula in
  match formula with
  | Forall
      (xs, Implies (And (Atom (r1, ts1), Atom (r2, ts2)), Eq (Var a, Var b)))
    when r1 = r2 && a <> b && List.length ts1 = List.length ts2 -> (
    match R.Database.table_opt db r1 with
    | None -> None
    | Some table ->
      let schema = R.Table.schema table in
      if List.length ts1 <> R.Schema.arity schema then None
      else begin
        let occurrences v =
          List.length (List.filter (fun t -> t = Var v) (ts1 @ ts2))
        in
        let payload = function
          | Var v -> v <> a && v <> b && List.mem v xs && occurrences v = 1
          | _ -> false
        in
        let wild t = t = Wildcard || payload t in
        let ok = ref true in
        let lhs = ref [] in
        let rhs = ref None in
        List.iteri
          (fun i (t1, t2) ->
            match (t1, t2) with
            | _ when wild t1 && wild t2 -> ()
            | Var v1, Var v2 when v1 = v2 && v1 <> a && v1 <> b ->
              lhs := (v1, i) :: !lhs
            | Var v1, Var v2
              when ((v1 = a && v2 = b) || (v1 = b && v2 = a)) && !rhs = None ->
              rhs := Some i
            | _ -> ok := false)
          (List.combine ts1 ts2);
        match (!ok, !rhs) with
        | true, Some rhs_pos ->
          let lhs_vars = List.map fst !lhs in
          let payload_vars =
            List.filter_map
              (fun t -> match t with Var v when payload t -> Some v | _ -> None)
              (ts1 @ ts2)
          in
          (* every quantified variable must play a role, and every role
             variable must be quantified *)
          let roles = a :: b :: (lhs_vars @ payload_vars) in
          if
            List.sort compare roles = List.sort compare xs
            && List.length (List.sort_uniq compare lhs_vars) = List.length lhs_vars
          then
            Some
              ( r1,
                List.map (fun (_, i) -> schema.(i).R.Schema.name) (List.rev !lhs),
                schema.(rhs_pos).R.Schema.name )
          else None
        | _ -> None
      end)
  | _ -> None

(** Does the inclusion dependency R[attrs_r] ⊆ S[attrs_s] hold?  On
    logical indices this is projection, rename onto shared blocks and
    an O(1) emptiness test of the difference — the last of the three
    classic dependency classes (FD / MVD / IND) checkable directly on
    the index.  The attribute lists pair up positionally and must draw
    from the same domains. *)
let ind_holds index ~r ~attrs_r ~s ~attrs_s =
  if List.length attrs_r <> List.length attrs_s then
    invalid_arg "Fd_check.ind_holds: attribute lists differ in length";
  let resolve table_name attrs =
    let table = R.Database.table index.Index.db table_name in
    let schema = R.Table.schema table in
    let pos = List.map (R.Schema.position schema) attrs in
    let entry =
      match Index.find_covering index ~table_name ~needed:pos with
      | Some e -> e
      | None -> invalid_arg "Fd_check.ind_holds: no covering index"
    in
    let slot p =
      let rec go i = if entry.Index.attrs.(i) = p then i else go (i + 1) in
      go 0
    in
    let keep = List.map (fun p -> entry.Index.blocks.(slot p)) pos in
    let others =
      Array.to_list entry.Index.blocks
      |> List.filteri (fun i _ -> not (List.mem entry.Index.attrs.(i) pos))
    in
    (table, schema, keep, others, entry)
  in
  let table_r, schema_r, keep_r, others_r, entry_r = resolve r attrs_r in
  let _table_s, _schema_s, keep_s, others_s, entry_s = resolve s attrs_s in
  ignore (table_r, schema_r);
  List.iter2
    (fun br bs ->
      if br.Fd.dom_size <> bs.Fd.dom_size then
        invalid_arg "Fd_check.ind_holds: attributes over different domains")
    keep_r keep_s;
  let m = Index.mgr index in
  let drop blocks root =
    let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks in
    if levels = [] then root else O.exists m levels root
  in
  let proj_r = drop others_r entry_r.Index.root in
  let proj_s = drop others_s entry_s.Index.root in
  (* rename S's projection onto R's blocks, then π_R \ π_S must be empty *)
  let pairs =
    List.concat (List.map2 (fun br bs ->
        List.init (Fd.width bs) (fun i -> (bs.Fd.levels.(i), br.Fd.levels.(i))))
        keep_r keep_s)
  in
  let proj_s' = if pairs = [] then proj_s else O.replace m proj_s pairs in
  O.is_false (O.bdiff m proj_r proj_s')

(** The violating lhs values: those determining more than one rhs
    tuple.  Returned as decoded value tuples, one list per lhs
    attribute. *)
let violating_lhs ?(limit = max_int) index ~table_name ~lhs ~rhs =
  let table = R.Database.table index.Index.db table_name in
  let schema = R.Table.schema table in
  let lhs_pos = List.map (R.Schema.position schema) lhs in
  let rhs_pos = List.map (R.Schema.position schema) rhs in
  let entry =
    match Index.find_covering index ~table_name ~needed:(lhs_pos @ rhs_pos) with
    | Some e -> e
    | None -> invalid_arg "Fd_check.violating_lhs: no covering index"
  in
  let m = Index.mgr index in
  let slot p =
    let rec go i = if entry.Index.attrs.(i) = p then i else go (i + 1) in
    go 0
  in
  let block_of p = entry.Index.blocks.(slot p) in
  let lhs_blocks = List.map block_of lhs_pos in
  let rhs_blocks = List.map block_of rhs_pos in
  let other_blocks =
    Array.to_list entry.Index.blocks
    |> List.filteri (fun i _ ->
           let p = entry.Index.attrs.(i) in
           not (List.mem p lhs_pos || List.mem p rhs_pos))
  in
  let drop blocks root =
    let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) blocks in
    if levels = [] then root else O.exists m levels root
  in
  let proj_lr = drop other_blocks entry.Index.root in
  (* walk the lhs values present and count their rhs co-domain *)
  let proj_l = drop rhs_blocks proj_lr in
  let results = ref [] in
  let count = ref 0 in
  let lhs_levels =
    List.concat_map (fun b -> Array.to_list b.Fd.levels) lhs_blocks |> List.sort compare
  in
  (try
     ignore
       (Sat.fold_cubes m proj_l ~init:() ~f:(fun () cube ->
            Sat.iter_expanded ~levels:(Array.of_list lhs_levels) cube ~f:(fun values ->
                if !count < limit then begin
                  let env = Array.make (M.nvars m) false in
                  List.iteri (fun i l -> env.(l) <- values.(i)) lhs_levels;
                  let codes = List.map (fun b -> Fd.read_env b env) lhs_blocks in
                  (* restrict proj_lr to this lhs value and count rhs *)
                  let restricted =
                    List.fold_left2
                      (fun acc b c ->
                        O.restrict m acc
                          (List.init (Fd.width b) (fun j ->
                               (Fd.level_of_bit b j, Fcv_util.Bits.test c j))))
                      proj_lr lhs_blocks codes
                  in
                  let rhs_count = count_over m rhs_blocks restricted in
                  if rhs_count > 1. then begin
                    let decoded =
                      List.map2
                        (fun p c -> R.Dict.value (R.Table.dict table p) c)
                        lhs_pos codes
                    in
                    results := decoded :: !results;
                    incr count
                  end
                end
                else raise Exit)))
   with Exit -> ());
  List.rev !results
