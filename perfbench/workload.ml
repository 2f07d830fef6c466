(* Workload definitions: base data, constraint suites and request streams,
   all made before any timing starts.  The base data of a workload is one
   fixed instance (generated from [data_seed]); the seed argument draws the
   request stream over it — which rows churn, the newcomers, the planted
   violations.  Generated instances differ in BDD sizes from one generator
   seed to the next, enough to move validate latency by a third, so a
   seed-varied base would measure the generator rather than the program.

   A stream is a list of steps.  A [Batch] is a run of mutations the client
   pipelines in one write; a [Validate] names the expected verdict vector
   (an index into the oracle's table) for the state reached at that point.
   Streams are cycle-periodic by construction: every cycle applies the same
   shape of mutations to fresh keys and to rotating existing rows, so the
   state at the i-th validate of any cycle is the state at the i-th validate
   of the first cycle up to a renaming of fresh keys.  The oracle evaluates
   the first cycles and the client compares every reply against them. *)

module R = Fcv_relation
module Rng = Fcv_util.Rng

type mutation = { insert : bool; table : string; row : string list }

type step = Batch of mutation array | Validate of int

type t = {
  name : string;
  db : R.Database.t;  (** the generated base data (also written as CSV) *)
  constraints : string list;  (** registration order = constraint ids *)
  shards : int;
  cycle : int -> step list;  (** the k-th cycle of the stream, k >= 0 *)
  validates_per_cycle : int;
  warmup : int;
      (** cycles run before the timed phase: the planner's first plans and
          cost history form there, once per daemon lifetime *)
  block : int;
      (** the timed phase ends on a multiple of this many cycles (audit:
          the planner's ε-probe period, so every run covers whole probe
          periods and a pass mix that does not depend on where the clock
          stopped) *)
  max_cycles_per_s : int;
      (** a generous ceiling on the cycle rate, several times what a
          2-vCPU machine sustains: the client renders this many cycles
          per second of run ahead of time *)
  recover_cycles : int;
      (** cycles journaled after the recovery snapshot and before the kill,
          so every recovery replays the same number of WAL records *)
}

let str = string_of_int

let data_seed = 1

(* -- base data ---------------------------------------------------------------- *)

(* Rows of a table as textual values, in table order. *)
let rows table =
  R.Table.fold table ~init:[] ~f:(fun acc row ->
      Array.to_list (Array.map R.Value.to_string (R.Table.decode table row)) :: acc)
  |> List.rev |> Array.of_list

(* Write every table as [<name>.csv] with each column headed by its domain
   name: `fcv serve -d` types a column by its header, so this keeps
   shipments.dest_state and carriers.home_state on the shared [state]
   domain, as the generator declares them. *)
let write_csv db dir =
  List.iter
    (fun name ->
      let table = R.Database.table db name in
      let oc = open_out (Filename.concat dir (name ^ ".csv")) in
      let header =
        List.init (R.Table.arity table) (fun i -> R.Dict.name (R.Table.dict table i))
      in
      output_string oc (String.concat "," header);
      output_char oc '\n';
      Array.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        (rows table);
      close_out oc)
    (R.Database.table_names db)

(* Load a directory written by [write_csv] exactly as `fcv serve -d`
   does: one table per file, every column typed by its header. *)
let load_csv dir =
  let db = R.Database.create () in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun f ->
         if Filename.check_suffix f ".csv" then begin
           let path = Filename.concat dir f in
           let header, _ = R.Csv.read_file path in
           ignore
             (R.Csv.load_table db ~name:(Filename.chop_suffix f ".csv") ~path
                ~domains:(List.map (fun h -> (h, h)) header)
                ())
         end);
  db

(* -- audit: the retail suite under net-zero passes -------------------------- *)

let retail_hard =
  List.map snd Fcv_datagen.Retail.audit_constraints
  @ List.init 4 (fun sg ->
        Printf.sprintf
          "forall c, ch . orders(_, c, _, _, ch) and customers(c, _, _, %d) -> \
           allowed_channel(%d, ch)"
          sg sg)
  @ List.init 12 (fun k ->
        Printf.sprintf "forall o . shipments(o, %d, _) -> (exists hs . carriers(%d, hs))" k k)

(* The soft variant of the suite's carrier reference.  Soft variants of
   its FDs and of the references over [orders] are left out: the planner
   sends a soft constraint it plans to SQL through [Naive_eval.soft_counts],
   and on those a validate runs for minutes (see NOTES.md). *)
let retail_soft = [ "holds >= 0.99 . forall k . shipments(_, k, _) -> (exists hs . carriers(k, hs))" ]

let audit_tables = [ "customers"; "products"; "orders"; "shipments"; "carriers"; "allowed_channel" ]

let audit ~seed =
  let gen =
    Fcv_datagen.Retail.generate (Rng.create data_seed)
      {
        Fcv_datagen.Retail.default with
        customers = 2_000;
        products = 500;
        orders = 10_000;
        bad_ref_rate = 0.002;
        bad_dest_rate = 0.01;
        bad_channel_rate = 0.005;
      }
  in
  let db = gen.Fcv_datagen.Retail.db in
  let base = List.map (fun t -> (t, rows (R.Database.table db t))) audit_tables in
  let rng = Rng.create (Rng.derive seed 1) in
  (* one pass: delete and re-insert one existing row of every watched
     table — every constraint turns dirty, the state is unchanged *)
  let picks = Array.init 4096 (fun _ -> List.map (fun (_, rs) -> Rng.int rng (Array.length rs)) base) in
  let cycle k =
    let muts =
      List.concat
        (List.map2
           (fun (table, rs) i ->
             let row = rs.(i) in
             [ { insert = false; table; row }; { insert = true; table; row } ])
           base
           picks.(k mod Array.length picks))
    in
    [ Batch (Array.of_list muts); Validate 0 ]
  in
  {
    name = "audit";
    db;
    constraints = retail_hard @ retail_soft;
    shards = 1;
    cycle;
    validates_per_cycle = 1;
    warmup = 2;
    block = Core.Planner.default_config.Core.Planner.probe_every + 1;
    max_cycles_per_s = 20;
    recover_cycles = 17;
  }

(* -- university: ingest and mixed ------------------------------------------- *)

let university_base =
  [
    "forall s, c . takes(s, c) -> (exists a . course(c, a))";
    "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
    "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
    "forall c, a1, a2 . course(c, a1) and course(c, a2) -> a1 = a2";
  ]

let university_policy =
  List.init 4 (fun d ->
      Printf.sprintf
        "forall s, k . student(s, %d, k) -> (exists c . takes(s, c) and course(c, 0))" d)

let students = 3_000
let courses = 100
let departments = 8

let university () =
  let db, _, _, _ =
    Fcv_datagen.University.generate (Rng.create data_seed)
      { Fcv_datagen.University.default with students; courses; departments; violators = 30 }
  in
  db

(* Fresh keys: student ids far above the generated range, one block per
   cycle, so no two cycles share a key and the student dictionary grows.
   Planted dangling enrolments cite one of four ghost course ids, which
   enter the course dictionary in the first cycles and never again. *)
let fresh_student ~per_cycle k j = str (1_000_000 + (k * per_cycle) + j)
let ghost_course k = str (2_000_000 + (k mod 4))

(* The university stream shared by ingest and mixed.  A cycle has
   [segments] segments of [seg_size] mutations, each pipelined in batches
   of [batch] and followed by a validate:
   - the first segment enrols [fresh] new students (each in [enroll]
     existing courses) and removes the previous cycle's (enrolments
     first), so every never-seen key — and the index rebuilds, replans
     and level recycles it brings — lands in one segment per cycle;
   - it also plants two violations, removed at the start of the second
     half: an enrolment in a ghost course (breaks takes -> course) and a
     second department for an existing student (breaks the student key);
   - the rest of the first half deletes existing enrolments (rotating
     through the base [takes] rows), which the second half re-inserts.
   Only the first segment of each half writes the student table: with
   eight segments the validates that re-check the student constraints are
   one in four, so the median validate is one that does not; with two,
   every validate re-checks them.  Validates in the first half see the
   planted state, the others the base state plus the live fresh
   students. *)
let university_cycle ~seed ~db ~fresh ~enroll ~segments ~seg_size ~batch =
  let takes_rows = rows (R.Database.table db "takes") in
  let student_rows = rows (R.Database.table db "student") in
  let n_takes = Array.length takes_rows in
  let offset = Rng.int (Rng.create (Rng.derive seed 3)) n_takes in
  let newcomers k =
    let rng = Rng.create (Rng.derive seed (2000 + k)) in
    List.concat
      (List.init fresh (fun j ->
           let s = fresh_student ~per_cycle:fresh k j in
           { insert = true; table = "student"; row = [ s; str (Rng.int rng departments); str (Rng.int rng students) ] }
           :: Array.to_list
                (Array.map (fun c -> { insert = true; table = "takes"; row = [ s; str c ] }) (Rng.sample rng enroll courses))))
  in
  let half = segments / 2 * seg_size in
  let batches muts =
    let a = Array.of_list muts in
    let n = Array.length a in
    List.init ((n + batch - 1) / batch) (fun i -> Batch (Array.sub a (i * batch) (min batch (n - (i * batch)))))
  in
  fun k ->
    let rng = Rng.create (Rng.derive seed (1000 + k)) in
    let leavers =
      if k = 0 then []
      else List.rev_map (fun m -> { m with insert = false }) (newcomers (k - 1))
    in
    let victim = student_rows.(Rng.int rng (Array.length student_rows)) in
    let bad_dept =
      match victim with
      | [ s; d; c ] -> [ s; str ((int_of_string d + 1) mod departments); c ]
      | _ -> assert false
    in
    let plants =
      [
        { insert = true; table = "takes"; row = [ str (Rng.int rng students); ghost_course k ] };
        { insert = true; table = "student"; row = bad_dept };
      ]
    in
    let head = newcomers k @ leavers @ plants in
    let churn = half - List.length head in
    let churned = List.init churn (fun j -> takes_rows.(((((k * half) + j) * 7919) + offset) mod n_takes)) in
    let muts =
      head
      @ List.map (fun row -> { insert = false; table = "takes"; row }) churned
      @ List.map (fun m -> { m with insert = false }) plants
      @ List.map (fun row -> { insert = true; table = "takes"; row }) churned
    in
    let a = Array.of_list muts in
    let n = Array.length a in
    List.concat
      (List.init segments (fun i ->
           let lo = i * seg_size in
           let len = if i = segments - 1 then n - lo else seg_size in
           let seg = Array.to_list (Array.sub a lo len) in
           batches seg @ [ Validate i ]))

let ingest ~seed =
  let db = university () in
  {
    name = "ingest";
    db;
    constraints = university_base;
    shards = 1;
    cycle = university_cycle ~seed ~db ~fresh:2 ~enroll:3 ~segments:2 ~seg_size:300 ~batch:20;
    validates_per_cycle = 2;
    warmup = 1;
    block = 1;
    max_cycles_per_s = 12;
    recover_cycles = 4;
  }

let mixed ~seed =
  let db = university () in
  {
    name = "mixed";
    db;
    constraints = university_base @ university_policy;
    shards = 4;
    cycle = university_cycle ~seed ~db ~fresh:1 ~enroll:2 ~segments:8 ~seg_size:20 ~batch:20;
    validates_per_cycle = 8;
    warmup = 2;
    block = 1;
    max_cycles_per_s = 4;
    recover_cycles = 3;
  }

let names = [ "audit"; "ingest"; "mixed" ]

let make name ~seed =
  match name with
  | "audit" -> audit ~seed
  | "ingest" -> ingest ~seed
  | "mixed" -> mixed ~seed
  | _ -> invalid_arg ("unknown workload: " ^ name)
