(** Model counting and model enumeration over ROBDDs.  These back the
    violation-reporting layer: once a constraint is known to be
    violated, the violating tuples are exactly the models of the
    violation BDD. *)

module M = Manager

(* The walk below is parametric in the count's arithmetic: the same
   traversal yields the fast [float] counts (inexact above [2^53]) and
   the exact {!Nat} counts that threshold verdicts compare against.
   [shift c k] must be [c * 2^k]. *)
type 'a ops = { c_zero : 'a; c_one : 'a; c_add : 'a -> 'a -> 'a; c_shift : 'a -> int -> 'a }

let float_ops =
  {
    c_zero = 0.;
    c_one = 1.;
    c_add = ( +. );
    c_shift = (fun c k -> c *. Float.pow 2. (float_of_int k));
  }

let nat_ops =
  { c_zero = Nat.zero; c_one = Nat.one; c_add = Nat.add; c_shift = Nat.shift_left }

(* The generalised count behind every [count*] entry point: models over
   the sub-space spanned by [levels], with every level in [fix] forced
   to its given value.  One walk, no node allocation — skipped {e free}
   levels weight a child by 2 each, skipped fixed levels by 1 (the
   forced branch), and a node sitting on a fixed level follows only the
   forced child.  Memoising on the node id is sound because a node's
   weight context is a function of its level alone. *)
let counted_with (type a) (ops : a ops) m root ~fix ~levels : a =
  let nvars = M.nvars m in
  let n = Array.length levels in
  let role = Array.make (max nvars 1) `Out in
  Array.iter
    (fun l ->
      if l < 0 || l >= nvars then invalid_arg "Sat: level out of range";
      role.(l) <- `Free)
    levels;
  List.iter
    (fun (l, b) ->
      if l < 0 || l >= nvars then invalid_arg "Sat: fixed level out of range";
      match role.(l) with
      | `Free -> invalid_arg "Sat.count_restrict_exact: fixed level also in levels"
      | `Fixed b' when b' <> b ->
        invalid_arg "Sat.count_restrict_exact: conflicting values for a fixed level"
      | `Fixed _ | `Out -> role.(l) <- `Fixed b)
    fix;
  (* frank.(l) = counted (free) levels strictly above level l *)
  let frank = Array.make (nvars + 1) 0 in
  for l = 0 to nvars - 1 do
    frank.(l + 1) <- frank.(l) + (match role.(l) with `Free -> 1 | _ -> 0)
  done;
  let memo : (int, a) Hashtbl.t = Hashtbl.create 256 in
  let rec node_count id =
    if id = M.zero then ops.c_zero
    else if id = M.one then ops.c_one
    else
      match Hashtbl.find_opt memo id with
      | Some c -> c
      | None ->
        let v = M.var m id in
        let c =
          match role.(v) with
          | `Fixed b -> below v (if b then M.high m id else M.low m id)
          | `Free -> ops.c_add (below v (M.low m id)) (below v (M.high m id))
          | `Out ->
            invalid_arg
              (Printf.sprintf "Sat: support level %d outside levels (+ fix)" v)
        in
        Hashtbl.add memo id c;
        c
  and below parent child =
    let cr = if M.is_terminal child then n else frank.(M.var m child) in
    let skipped = cr - frank.(parent) - (match role.(parent) with `Free -> 1 | _ -> 0) in
    ops.c_shift (node_count child) skipped
  in
  let top = if M.is_terminal root then n else frank.(M.var m root) in
  ops.c_shift (node_count root) top

let all_levels m = Array.init (M.nvars m) Fun.id

(** Number of satisfying assignments of [root] over the manager's full
    variable set, as a float (counts overflow 63-bit ints quickly; use
    {!count_exact} when the value feeds a comparison). *)
let count m root = counted_with float_ops m root ~fix:[] ~levels:(all_levels m)

(** Satisfying assignments over exactly the sub-space spanned by
    [levels] (sorted, distinct) — the direct form of the "divide
    {!count} by [2^unused]" idiom, without the division.
    @raise Invalid_argument when [root]'s support escapes [levels]. *)
let count_over m root ~levels = counted_with float_ops m root ~fix:[] ~levels

(** Exact counterparts, same walk with {!Nat} arithmetic.  A float
    count is only integer-exact below [2^53]; threshold verdicts
    ("violation rate ≤ 1−p") and repair kill counts compare these
    instead so a count can never round across a decision. *)
let count_exact m root = counted_with nat_ops m root ~fix:[] ~levels:(all_levels m)

let count_over_exact m root ~levels = counted_with nat_ops m root ~fix:[] ~levels

(** {!count_over_exact} of [root] with the [fix]ed levels forced: the
    model count, over [levels], of the restriction — computed in one
    walk with no BDD allocation (the repair planner's kill counts call
    this once per inclusion–exclusion term).
    @raise Invalid_argument when support escapes [levels] + [fix],
    when the two sets overlap, or on conflicting [fix] entries. *)
let count_restrict_exact m root ~fix ~levels = counted_with nat_ops m root ~fix ~levels

(* Merge fix lists; [None] on a conflicting level (an empty
   intersection). *)
let merge_fixes fixes =
  let h = Hashtbl.create 16 in
  let exception Conflict in
  try
    List.iter
      (List.iter (fun (l, b) ->
           match Hashtbl.find_opt h l with
           | Some b' when b' <> b -> raise Conflict
           | Some _ -> ()
           | None -> Hashtbl.add h l b))
      fixes;
    Some (Hashtbl.fold (fun l b acc -> (l, b) :: acc) h [])
  with Conflict -> None

(** Models of [root], over [levels], lying in the union of the
    [fixes] restrictions: inclusion–exclusion over
    {!count_restrict_exact} walks.  The odd-size and even-size terms
    are summed apart and subtracted once, all in {!Nat} — signed float
    terms beyond [2^53] would cancel badly and lose units. *)
let count_union_exact m root ~fixes ~levels =
  let n = List.length fixes in
  let plus = ref Nat.zero and minus = ref Nat.zero in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) fixes in
    match merge_fixes subset with
    | None -> ()
    | Some fix ->
      let free = Array.of_list (List.filter (fun l -> not (List.mem_assoc l fix)) (Array.to_list levels)) in
      let terms = if List.length subset mod 2 = 1 then plus else minus in
      terms := Nat.add !terms (count_restrict_exact m root ~fix ~levels:free)
  done;
  Nat.sub !plus !minus

(** One satisfying partial assignment as [(level, value)] pairs along a
    high-preferring path, or [None] if unsatisfiable.  Levels absent
    from the result are don't-cares. *)
let any m root =
  if root = M.zero then None
  else begin
    let rec go id acc =
      if id = M.one then List.rev acc
      else begin
        let v = M.var m id in
        if M.high m id <> M.zero then go (M.high m id) ((v, true) :: acc)
        else go (M.low m id) ((v, false) :: acc)
      end
    in
    Some (go root [])
  end

(** Fold over all satisfying cubes.  Each cube is a list of
    [(level, value)] pairs in ascending level order; unmentioned levels
    are don't-cares.  Cubes are disjoint and cover exactly the models
    of [root]. *)
let fold_cubes m root ~init ~f =
  let rec go id acc cube =
    if id = M.zero then acc
    else if id = M.one then f acc (List.rev cube)
    else begin
      let v = M.var m id in
      let acc = go (M.low m id) acc ((v, false) :: cube) in
      go (M.high m id) acc ((v, true) :: cube)
    end
  in
  go root init []

(** All satisfying cubes, materialised.  Intended for small result
    sets (tests, violation samples); use [fold_cubes] for streaming. *)
let all_cubes m root = List.rev (fold_cubes m root ~init:[] ~f:(fun acc c -> c :: acc))

(** Expand a cube to full assignments over the given [levels] (a sorted
    array); don't-care levels branch both ways.  Calls [f] once per
    total assignment, represented as a populated bool array indexed by
    position in [levels]. *)
let iter_expanded ~levels cube ~f =
  let n = Array.length levels in
  let fixed = Hashtbl.create 8 in
  List.iter (fun (v, b) -> Hashtbl.replace fixed v b) cube;
  let values = Array.make n false in
  let rec go i =
    if i = n then f values
    else
      match Hashtbl.find_opt fixed levels.(i) with
      | Some b ->
        values.(i) <- b;
        go (i + 1)
      | None ->
        values.(i) <- false;
        go (i + 1);
        values.(i) <- true;
        go (i + 1)
  in
  go 0
