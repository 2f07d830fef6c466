(** The constraint-service wire format, in one place for server,
    client, WAL and tests: line-delimited JSON requests/responses over
    a Unix-domain or TCP socket, plus the textual update-stream syntax
    shared by [fcv monitor] and [fcv client updates].

    Every request is one JSON object on one line; every response is
    one JSON object on one line.  See docs/PROTOCOL.md for the
    grammar, error codes and an example session. *)

type json = Fcv_util.Telemetry.json

exception Malformed of string
(** A line that does not follow the protocol (also used by the update
    stream parser for malformed update lines). *)

(** {1 Requests} *)

type request =
  | Register of { source : string; id : int option }
      (** [id] is [None] on the wire from clients; the server logs the
          assigned id into the WAL so replay pins the same id. *)
  | Unregister of int
  | Insert of string * string list  (** table, values (textual) *)
  | Delete of string * string list
  | Validate
  | Repair of { strategy : string; max_deletions : int option; apply : bool }
      (** plan a deletion repair ([strategy] is ["exact"] or
          ["greedy"]); with [apply], execute the plan's deletions
          through the normal mutation path.  The request itself is
          unlogged — applied deletions are journaled individually as
          [Delete] records, so replay needs no planner. *)
  | Explain of int
      (** the planner's costed plan tree for one registered constraint
          (EXPLAIN VERBOSE for constraints); read-only, unlogged *)
  | Stats
  | Compact
      (** reclaim BDD memory now (GC / level recycle); unlogged — GC
          changes no logical state *)
  | Snapshot
  | Ping
  | Shutdown

val request_name : request -> string

val logged : request -> bool
(** Must this request be persisted to the WAL (i.e. does it mutate
    durable state)? *)

val request_to_line : ?id:json -> request -> string
(** One JSON line (no trailing newline); [id] is the client-chosen
    request id, echoed back by the server. *)

(** {1 Errors} *)

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Unknown_op
  | Bad_request  (** valid JSON, wrong shape or missing fields *)
  | Unknown_table
  | Constraint_error  (** register: parse/typing failure *)
  | Shutting_down
  | Over_budget
      (** insert/delete: did not fit the node budget even after a
          compaction; nothing was changed *)
  | Internal

val error_code_name : error_code -> string

val parse_request : string -> (json option * request, error_code * string) result
(** Parse one request line; [json option] is the echoed request id. *)

(** {1 Responses} *)

val ok_line : ?id:json -> (string * json) list -> string
(** [{"ok":true, ...fields}] as one line. *)

val error_line : ?id:json -> error_code -> string -> string
(** [{"ok":false,"error":code,"message":msg}] as one line. *)

type response = { id : json option; ok : bool; body : json }

val parse_response : string -> response
(** @raise Malformed on garbage. *)

(** {1 Textual update streams}

    One command per line: [insert TABLE,v1,v2,...],
    [delete TABLE,v1,v2,...] or [validate]; blank lines and [#]
    comments are skipped.  This is the [fcv monitor] input format and
    what [fcv client updates] forwards to a daemon. *)

type update =
  | U_insert of string * string list
  | U_delete of string * string list
  | U_validate

val update_of_line : string -> update option
(** [None] for blank/comment lines.  @raise Malformed. *)

val request_of_update : update -> request

type coded =
  | Coded of int array
  | Unknown_value of string  (** which value; only when [intern] is false *)

val code_row :
  ?intern:bool ->
  Fcv_relation.Database.t ->
  table:string ->
  string list ->
  coded
(** Dictionary-code a textual row against [table]'s schema.  With
    [intern] (the service's semantics) unseen values get fresh codes —
    the index layer rebuilds affected entries; without (the batch
    [fcv monitor] semantics) they yield [Unknown_value].
    @raise Malformed on arity mismatch.
    @raise Invalid_argument on unknown tables. *)

(** {1 Addresses} *)

val sockaddr_of_string : string -> Unix.sockaddr
(** ["host:port"] (or [":port"], meaning 127.0.0.1) is TCP; anything
    else is a Unix-domain socket path. *)
