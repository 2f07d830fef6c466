(** The constraint-service wire format: line-delimited JSON requests
    and responses, shared by the server loop, the WAL (a log record is
    exactly a request line), the [fcv client] subcommand and the
    tests — plus the textual update-stream syntax that [fcv monitor]
    replays offline and [fcv client updates] forwards to a daemon. *)

module R = Fcv_relation
module T = Fcv_util.Telemetry
module Json = Fcv_util.Telemetry.Json

type json = T.json

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* -- requests ------------------------------------------------------------- *)

type request =
  | Register of { source : string; id : int option }
  | Unregister of int
  | Insert of string * string list
  | Delete of string * string list
  | Validate
  | Repair of { strategy : string; max_deletions : int option; apply : bool }
  | Explain of int
  | Stats
  | Compact
  | Snapshot
  | Ping
  | Shutdown

let request_name = function
  | Register _ -> "register"
  | Unregister _ -> "unregister"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Validate -> "validate"
  | Repair _ -> "repair"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Compact -> "compact"
  | Snapshot -> "snapshot"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

(* Compact is deliberately unlogged: GC changes no logical state, and
   recovery replay would renumber nodes pointlessly.  Repair too: the
   deletions it applies are journaled individually as Delete records,
   so replay never needs to re-run a planner.  Explain is read-only. *)
let logged = function
  | Register _ | Unregister _ | Insert _ | Delete _ -> true
  | Validate | Repair _ | Explain _ | Stats | Compact | Snapshot | Ping | Shutdown ->
    false

let request_to_json ?id req =
  let fields =
    match req with
    | Register { source; id = cid } ->
      [ ("source", T.String source) ]
      @ (match cid with Some i -> [ ("constraint", T.Int i) ] | None -> [])
    | Unregister c | Explain c -> [ ("constraint", T.Int c) ]
    | Insert (table, row) | Delete (table, row) ->
      [ ("table", T.String table); ("row", T.List (List.map (fun v -> T.String v) row)) ]
    | Repair { strategy; max_deletions; apply } ->
      [ ("strategy", T.String strategy) ]
      @ (match max_deletions with Some n -> [ ("max_deletions", T.Int n) ] | None -> [])
      @ if apply then [ ("apply", T.Bool true) ] else []
    | Validate | Stats | Compact | Snapshot | Ping | Shutdown -> []
  in
  let id_field = match id with Some j -> [ ("id", j) ] | None -> [] in
  T.Obj (id_field @ (("op", T.String (request_name req)) :: fields))

let request_to_line ?id req = Json.to_string (request_to_json ?id req)

(* -- errors --------------------------------------------------------------- *)

type error_code =
  | Parse_error
  | Unknown_op
  | Bad_request
  | Unknown_table
  | Constraint_error
  | Shutting_down
  | Over_budget
  | Internal

let error_code_name = function
  | Parse_error -> "parse_error"
  | Unknown_op -> "unknown_op"
  | Bad_request -> "bad_request"
  | Unknown_table -> "unknown_table"
  | Constraint_error -> "constraint_error"
  | Shutting_down -> "shutting_down"
  | Over_budget -> "over_budget"
  | Internal -> "internal"

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Parse_error, msg)
  | json -> (
    let id = Json.member "id" json in
    let str field =
      match Json.member field json with
      | Some (T.String s) -> Ok s
      | _ -> Error (Bad_request, Printf.sprintf "missing string field %S" field)
    in
    let int field =
      match Json.member field json with
      | Some (T.Int i) -> Ok i
      | _ -> Error (Bad_request, Printf.sprintf "missing integer field %S" field)
    in
    let row () =
      match Json.member "row" json with
      | Some (T.List cells) ->
        let cell = function
          | T.String s -> Ok s
          | T.Int i -> Ok (string_of_int i)
          | _ -> Error (Bad_request, "row cells must be strings or integers")
        in
        List.fold_right
          (fun c acc ->
            match (cell c, acc) with
            | Ok v, Ok vs -> Ok (v :: vs)
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> e)
          cells (Ok [])
      | _ -> Error (Bad_request, "missing array field \"row\"")
    in
    let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
    match str "op" with
    | Error _ -> Error (Bad_request, "missing string field \"op\"")
    | Ok op -> (
      match op with
      | "register" -> (
        let* source = str "source" in
        let id_opt =
          match Json.member "constraint" json with Some (T.Int i) -> Some i | _ -> None
        in
        (* an explicit threshold field canonicalises into the source's
           [holds >= p .] prefix, so the WAL record, the snapshot and
           every report all carry one spelling of the constraint *)
        match Json.member "threshold" json with
        | None -> Ok (id, Register { source; id = id_opt })
        | Some j -> (
          let p =
            match j with
            | T.Float f -> Some f
            | T.Int i -> Some (float_of_int i)
            | _ -> None
          in
          match p with
          | None -> Error (Bad_request, "threshold must be a number")
          | Some p when not (p > 0. && p <= 1.) ->
            Error (Bad_request, "threshold must be in (0, 1]")
          | Some p ->
            let source =
              if p >= 1.0 then source
              else
                Printf.sprintf "holds >= %s . %s"
                  (Core.Formula.threshold_repr p)
                  source
            in
            Ok (id, Register { source; id = id_opt })))
      | "unregister" ->
        let* c = int "constraint" in
        Ok (id, Unregister c)
      | "insert" ->
        let* table = str "table" in
        let* row = row () in
        Ok (id, Insert (table, row))
      | "delete" ->
        let* table = str "table" in
        let* row = row () in
        Ok (id, Delete (table, row))
      | "validate" -> Ok (id, Validate)
      | "repair" ->
        let strategy =
          match Json.member "strategy" json with
          | Some (T.String s) -> s
          | _ -> "greedy"
        in
        if strategy <> "exact" && strategy <> "greedy" then
          Error
            ( Bad_request,
              Printf.sprintf "unknown repair strategy %S (exact|greedy)" strategy )
        else
          let max_deletions =
            match Json.member "max_deletions" json with
            | Some (T.Int n) -> Some n
            | _ -> None
          in
          let apply = Json.member "apply" json = Some (T.Bool true) in
          Ok (id, Repair { strategy; max_deletions; apply })
      | "explain" ->
        let* c = int "constraint" in
        Ok (id, Explain c)
      | "stats" -> Ok (id, Stats)
      | "compact" -> Ok (id, Compact)
      | "snapshot" -> Ok (id, Snapshot)
      | "ping" -> Ok (id, Ping)
      | "shutdown" -> Ok (id, Shutdown)
      | op -> Error (Unknown_op, Printf.sprintf "unknown op %S" op)))

(* -- responses ------------------------------------------------------------ *)

let with_id id fields = match id with Some j -> ("id", j) :: fields | None -> fields

let ok_line ?id fields = Json.to_string (T.Obj (with_id id (("ok", T.Bool true) :: fields)))

let error_line ?id code msg =
  Json.to_string
    (T.Obj
       (with_id id
          [
            ("ok", T.Bool false);
            ("error", T.String (error_code_name code));
            ("message", T.String msg);
          ]))

type response = { id : json option; ok : bool; body : json }

let parse_response line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> malformed "bad response: %s" msg
  | json -> (
    match Json.member "ok" json with
    | Some (T.Bool ok) -> { id = Json.member "id" json; ok; body = json }
    | _ -> malformed "response without \"ok\" field: %s" line)

(* -- textual update streams ----------------------------------------------- *)

type update =
  | U_insert of string * string list
  | U_delete of string * string list
  | U_validate

(* One command per line: 'insert TABLE,v1,...', 'delete TABLE,v1,...'
   or 'validate'; '#' comments and blank lines are skipped. *)
let update_of_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else if line = "validate" then Some U_validate
  else
    match String.index_opt line ' ' with
    | None -> malformed "malformed update line: %s" line
    | Some k -> (
      let cmd = String.sub line 0 k in
      let rest = String.sub line (k + 1) (String.length line - k - 1) in
      match String.split_on_char ',' rest |> List.map String.trim with
      | table :: cells when cells <> [] -> (
        match cmd with
        | "insert" -> Some (U_insert (table, cells))
        | "delete" -> Some (U_delete (table, cells))
        | _ -> malformed "unknown update command: %s" cmd)
      | _ -> malformed "malformed update row: %s" rest)

let request_of_update = function
  | U_insert (table, row) -> Insert (table, row)
  | U_delete (table, row) -> Delete (table, row)
  | U_validate -> Validate

type coded = Coded of int array | Unknown_value of string

(* Dictionary-code a textual row.  [intern] is the daemon's semantics
   (fresh codes for unseen values; the index layer rebuilds affected
   entries); without it an unseen value makes the row undeliverable —
   the batch monitor's skip-with-warning semantics. *)
let code_row ?(intern = false) db ~table cells =
  let t = R.Database.table db table in
  let arity = R.Table.arity t in
  if List.length cells <> arity then
    malformed "%s: expected %d values, got %d" table arity (List.length cells);
  let unknown = ref None in
  let coded =
    List.mapi
      (fun j cell ->
        let v = R.Value.of_string cell in
        let dict = R.Table.dict t j in
        if intern then R.Dict.intern dict v
        else
          match R.Dict.code dict v with
          | Some c -> c
          | None ->
            if !unknown = None then unknown := Some cell;
            -1)
      cells
  in
  match !unknown with
  | Some cell -> Unknown_value cell
  | None -> Coded (Array.of_list coded)

(* -- addresses ------------------------------------------------------------ *)

(* "host:port" (or ":port") is TCP; anything else is a Unix-domain
   socket path. *)
let sockaddr_of_string s =
  match String.rindex_opt s ':' with
  | Some k when k < String.length s - 1 && String.for_all (fun c -> c >= '0' && c <= '9')
                  (String.sub s (k + 1) (String.length s - k - 1)) ->
    let port = int_of_string (String.sub s (k + 1) (String.length s - k - 1)) in
    let host = if k = 0 then "127.0.0.1" else String.sub s 0 k in
    let addr =
      try Unix.inet_addr_of_string host
      with _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve host " ^ host)
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found -> failwith ("cannot resolve host " ^ host))
    in
    Unix.ADDR_INET (addr, port)
  | _ -> Unix.ADDR_UNIX s
