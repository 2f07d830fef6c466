(* The untraced end-to-end run: one client process, one Unix-socket
   connection, closed loop over pipelined batches, against an `fcv serve`
   process of its own. *)

module P = Fcv_server.Protocol
module J = Fcv_util.Telemetry.Json
module T = Fcv_util.Telemetry

let setups = 3
let recoveries = 3

(* The timed phase is measured in this many consecutive slices; rates and
   medians are reported as the median over slices, so a stretch of a run
   slowed by the machine moves them less than a whole-run figure. *)
let slices = 5

(* -- the pre-rendered stream -------------------------------------------------- *)

type rstep =
  | RBatch of { payload : (int * string) list; muts : Workload.mutation array }
  | RValidate of { payload : (int * string) list; slot : int }

let request_of (m : Workload.mutation) =
  if m.Workload.insert then P.Insert (m.Workload.table, m.Workload.row)
  else P.Delete (m.Workload.table, m.Workload.row)

(* Cycles [0, n) as request lines with consecutive ids from 0. *)
let render (w : Workload.t) n =
  let next = ref 0 in
  let frame reqs =
    List.map
      (fun req ->
        let id = !next in
        incr next;
        (id, P.request_to_line ~id:(T.Int id) req))
      reqs
  in
  Array.init n (fun k ->
      Array.of_list
        (List.map
           (function
             | Workload.Batch muts ->
               RBatch { payload = frame (Array.to_list (Array.map request_of muts)); muts }
             | Workload.Validate slot -> RValidate { payload = frame [ P.Validate ]; slot })
           (w.Workload.cycle k)))

(* -- run state and reply checks ---------------------------------------------- *)

type ctx = {
  w : Workload.t;
  base : Oracle.verdict array;
  slots : Oracle.verdict array array;
  base_cards : (string * int) list;  (** cardinality of every table in the base data *)
  cards : (string, int) Hashtbl.t;  (** acked cardinalities on the current daemon's state *)
  mutable attempted : int;
  mutable failed : int;
}

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      c.failed <- c.failed + 1;
      if c.failed <= 5 then prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

let member k json = match J.member k json with Some v -> v | None -> T.Null

let parse c line =
  match P.parse_response line with
  | r -> Some r
  | exception P.Malformed msg ->
    fail c "malformed reply: %s" msg;
    None

let check_ack c id (m : Workload.mutation) line =
  c.attempted <- c.attempted + 1;
  match parse c line with
  | None -> ()
  | Some r ->
    if not r.P.ok then fail c "mutation %d: %s" id line
    else if r.P.id <> Some (T.Int id) then fail c "mutation %d: reply out of order: %s" id line
    else if (not m.Workload.insert) && member "removed" r.P.body <> T.Bool true then
      fail c "mutation %d: delete removed nothing" id
    else
      let d = if m.Workload.insert then 1 else -1 in
      Hashtbl.replace c.cards m.Workload.table
        (d + Option.value ~default:0 (Hashtbl.find_opt c.cards m.Workload.table))

let check_verdicts c ~what (expected : Oracle.verdict array) line =
  c.attempted <- c.attempted + 1;
  match parse c line with
  | None -> ()
  | Some r when not r.P.ok -> fail c "%s: %s" what line
  | Some r -> (
    match member "reports" r.P.body with
    | T.List reports when List.length reports = Array.length expected ->
      let wrong =
        List.filter
          (fun rep ->
            match member "constraint" rep with
            | T.Int i when i >= 0 && i < Array.length expected ->
              let e = expected.(i) in
              let violated = member "outcome" rep = T.String "violated" in
              let counts_ok =
                match e.Oracle.counts with
                | None -> true
                | Some (v, b) ->
                  member "violations" rep = T.String (string_of_int v)
                  && member "bindings" rep = T.String (string_of_int b)
              in
              violated <> e.Oracle.violated || not counts_ok
            | _ -> true)
          reports
      in
      if wrong <> [] then fail c "%s: %d wrong verdicts, e.g. %s" what (List.length wrong) (J.to_string (List.hd wrong))
    | _ -> fail c "%s: wrong report count: %s" what line)

(* -- steps --------------------------------------------------------------------- *)

type samples = {
  mutable acks : float list;  (** ms, one per mutation *)
  mutable batches : float list;  (** ms, a batch's last acknowledgement *)
  mutable validates : float list;  (** ms *)
  mutable mutations : int;
  mutable validations : int;
}

let run_step c wire s = function
  | RBatch { payload; muts } ->
    let t0 = Wire.send wire payload in
    let replies = Wire.recv wire (List.length payload) in
    List.iteri
      (fun i ((id, _), (line, at)) ->
        check_ack c id muts.(i) line;
        s.acks <- ((at -. t0) *. 1000.) :: s.acks)
      (List.combine payload replies);
    s.batches <- ((snd (List.nth replies (List.length replies - 1)) -. t0) *. 1000.) :: s.batches;
    s.mutations <- s.mutations + List.length payload
  | RValidate { payload; slot } ->
    let t0 = Wire.send wire payload in
    let line, at = List.hd (Wire.recv wire 1) in
    check_verdicts c ~what:(Printf.sprintf "validate %d" (fst (List.hd payload))) c.slots.(slot) line;
    s.validates <- ((at -. t0) *. 1000.) :: s.validates;
    s.validations <- s.validations + 1

(* Control requests carry id -1, outside the stream's id space. *)
let control wire req =
  let line, secs = Wire.call wire ~id:(-1) req in
  (P.parse_response line, secs)

(* -- phases --------------------------------------------------------------------- *)

type paths = { fcv : string; data : string; cons : string; dir : string }

let rm_rf path = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote path)))

(* A daemon with [telemetry] is connected to only once it listens, so
   its first validate's round trip holds no start-up work. *)
let start ?telemetry p c ~state =
  let d =
    Daemon.spawn ?telemetry ~fcv:p.fcv ~data:p.data ~constraints:p.cons ~state ~shards:c.w.Workload.shards
      ~log:(Filename.concat p.dir "daemon.log") ()
  in
  if telemetry <> None then Daemon.await_listening d;
  let wire = Wire.connect ~timeout:60. d.Daemon.sock in
  (d, wire)

(* Spawn to the first answered validate; also returns that validate's
   round trip in ms. *)
let cold_start ?telemetry p c ~state ~expected ~what =
  let d, wire = start ?telemetry p c ~state in
  let r, rtt = control wire P.Validate in
  let secs = Unix.gettimeofday () -. d.Daemon.spawned in
  check_verdicts c ~what expected (J.to_string r.P.body);
  (d, wire, secs, rtt *. 1000.)

let cardinalities c wire =
  c.attempted <- c.attempted + 1;
  let r, _ = control wire P.Stats in
  match member "tables" r.P.body with
  | T.Obj tables ->
    Hashtbl.iter
      (fun name n ->
        if List.assoc_opt name tables <> Some (T.Int n) then
          fail c "recovered %s cardinality differs from the acked %d" name n)
      c.cards
  | _ -> fail c "stats without tables"

type result = {
  setup_s : float list;
  recover_s : float list;
  timed_s : float;
  slices : (samples * float * int) list;
      (** each slice's samples, its length in seconds and one past its last cycle *)
  peak_rss_mb : float;
  first : int;  (** the first timed cycle; earlier ones were the warm-up *)
  cycles : int;  (** one past the last timed cycle *)
  lifetime_validates_ms : float list;
      (** every validate round trip of the timed daemon: its cold validate,
          the warm-up's and the timed phase's *)
}

type prepared = {
  p : paths;
  c : ctx;
  stream : rstep array array;
  journal : rstep array array;  (** the recovery experiment's cycles *)
  w : Workload.t;
}

(* Everything the run needs, before any timing: the CSV base data and
   constraints file the daemon loads, the oracle's verdicts and the
   rendered request lines. *)
let prepare ~fcv ~dir ~seconds (w : Workload.t) =
  let data = Filename.concat dir "data" in
  Sys.mkdir data 0o755;
  Workload.write_csv w.Workload.db data;
  let cons = Filename.concat dir "constraints.txt" in
  let oc = open_out cons in
  List.iter (fun s -> output_string oc (s ^ "\n")) w.Workload.constraints;
  close_out oc;
  let oracle_db = Workload.load_csv data in
  let base_cards =
    List.map
      (fun t -> (t, Fcv_relation.Table.cardinality (Fcv_relation.Database.table oracle_db t)))
      (Fcv_relation.Database.table_names oracle_db)
  in
  let base, slots = Oracle.expected w oracle_db in
  let cap = w.Workload.warmup + (seconds * w.Workload.max_cycles_per_s) + w.Workload.block in
  {
    p = { fcv; data; cons; dir };
    c = { w; base; slots; base_cards; cards = Hashtbl.create 8; attempted = 0; failed = 0 };
    stream = render w cap;
    journal = render (Workload.make w.Workload.name ~seed:Workload.data_seed) w.Workload.recover_cycles;
    w;
  }

let fresh_samples () = { acks = []; batches = []; validates = []; mutations = 0; validations = 0 }

(* A daemon over a fresh state directory, to its first answered validate. *)
let fresh_start ?telemetry p c ~state =
  rm_rf state;
  Hashtbl.reset c.cards;
  List.iter (fun (t, n) -> Hashtbl.replace c.cards t n) c.base_cards;
  cold_start ?telemetry p c ~state ~expected:c.base ~what:"cold validate"

(* Three phases, each on daemons of its own over fresh state:
   - recovery: after the first set-up, cut a snapshot, journal
     [recover_cycles] cycles (ending on a validate), then SIGKILL and
     restart [recoveries] times.  The journal is drawn from the data seed,
     not the run's: every run replays the same WAL over the same base, so
     the seed does not move [recover_s];
   - the other set-ups, each to its cold validate;
   - the last set-up's daemon runs the warm-up cycles, then the timed
     phase: whole cycles until the clock has run out and a block
     boundary is reached.
   With [telemetry], the timed daemon records its telemetry and is shut
   down cleanly at the end, so that it writes the file. *)
let run ?(setups = setups) ?(recoveries = recoveries) ?telemetry ~seconds { p; c; stream; journal; w } =
  let cap = Array.length stream in
  let state = Filename.concat p.dir "state" in
  let setup_s = ref [] and recover_s = ref [] and cold_ms = ref 0. in
  let start ?telemetry () =
    let d, wire, secs, rtt = fresh_start ?telemetry p c ~state in
    setup_s := secs :: !setup_s;
    cold_ms := rtt;
    (d, wire)
  in
  if recoveries > 0 then begin
    let d, wire = start () in
    ignore (control wire P.Snapshot);
    let journaled = fresh_samples () in
    Array.iter (Array.iter (run_step c wire journaled)) journal;
    let live = ref (d, wire) in
    for _ = 1 to recoveries do
      let d, wire = !live in
      let t_kill = Unix.gettimeofday () in
      Daemon.kill d;
      Wire.close wire;
      let expected = c.slots.(w.Workload.validates_per_cycle - 1) in
      let d, wire, _, _ = cold_start p c ~state ~expected ~what:"recovered validate" in
      recover_s := (Unix.gettimeofday () -. t_kill) :: !recover_s;
      cardinalities c wire;
      live := (d, wire)
    done;
    let d, wire = !live in
    Wire.close wire;
    Daemon.kill d
  end;
  while List.length !setup_s < setups - 1 do
    let d, wire = start () in
    Wire.close wire;
    Daemon.kill d
  done;
  let d, wire = start ?telemetry () in
  let warm = fresh_samples () in
  for j = 0 to w.Workload.warmup - 1 do
    Array.iter (run_step c wire warm) stream.(j)
  done;
  let k = ref w.Workload.warmup in
  let t0 = Unix.gettimeofday () in
  let slice_s = float_of_int seconds /. float_of_int slices in
  let measured =
    List.init slices (fun i ->
        let s = fresh_samples () in
        let t_start = Unix.gettimeofday () in
        let until = t0 +. (slice_s *. float_of_int (i + 1)) in
        while (Unix.gettimeofday () < until || (!k - w.Workload.warmup) mod w.Workload.block <> 0) && !k < cap do
          Array.iter (run_step c wire s) stream.(!k);
          incr k
        done;
        (s, Unix.gettimeofday () -. t_start, !k))
    (* a slice the previous one's block overran holds no cycle *)
    |> List.filter (fun (s, _, _) -> s.mutations + s.validations > 0)
  in
  let timed_s = Unix.gettimeofday () -. t0 in
  if !k >= cap then prerr_endline "perfbench: stream exhausted before the clock ran out";
  let peak_rss_mb = Daemon.peak_rss_mb d in
  if telemetry = None then begin
    Wire.close wire;
    Daemon.kill d
  end
  else begin
    ignore (control wire P.Shutdown);
    Wire.close wire;
    Daemon.wait d
  end;
  {
    setup_s = !setup_s;
    recover_s = !recover_s;
    timed_s;
    slices = measured;
    peak_rss_mb;
    first = w.Workload.warmup;
    cycles = !k;
    lifetime_validates_ms =
      (!cold_ms :: warm.validates) @ List.concat_map (fun (s, _, _) -> s.validates) measured;
  }
