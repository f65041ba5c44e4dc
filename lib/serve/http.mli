(** Hand-rolled HTTP/1.1, in the spirit of the hand-rolled [Json]
    (doc/serve.md).

    The daemon needs exactly the subset below — request parsing with
    hard limits, keep-alive and pipelining, fixed-length responses, and
    chunked streaming — and depending on an HTTP stack for that would
    drag in the tree's first networking dependency.  Everything is
    written against a pull {!reader}, so the parser is tested byte-for-
    byte from strings ([test/test_serve.ml]) and run unchanged over
    sockets.

    The parser is {b total}: any malformed input yields [`Error (status,
    reason)] with a 4xx/5xx status — never an exception — which is what
    lets {!serve_connection} guarantee a broken client cannot kill its
    connection handler, let alone the daemon. *)

(** {1 Limits} — inputs beyond these are rejected, not buffered. *)

val max_line_bytes : int
(** Longest accepted request/header/chunk-size line (8 KiB). *)

val max_headers : int
(** Most headers per request (128; beyond → 431). *)

val max_body_bytes : int
(** Largest accepted request body (1 MiB; beyond → 413). *)

(** {1 Readers} *)

type reader

val reader_of_string : string -> reader

val reader_of_fd : Unix.file_descr -> reader
(** Buffered reads; any read error is treated as end of stream. *)

(** {1 Requests} *)

type request = {
  meth : string;                      (** verb, uppercased ([GET], …) *)
  target : string;                    (** raw request target *)
  path : string;                      (** decoded path component *)
  query : (string * string) list;     (** decoded query pairs, in order *)
  version : string;                   (** [HTTP/1.0] or [HTTP/1.1] *)
  headers : (string * string) list;   (** names lowercased, in order *)
  body : string;
}

val header : request -> string -> string option
(** First header with this (lowercase) name. *)

val keep_alive : request -> bool
(** HTTP/1.1 defaults to persistent, [Connection: close] opts out;
    HTTP/1.0 defaults to close, [Connection: keep-alive] opts in. *)

val parse_request :
  reader -> [ `Ok of request | `Eof | `Error of int * string ]
(** Parse one request off the reader, leaving any pipelined follow-up
    bytes buffered for the next call.  [`Eof] is a clean close between
    requests; [`Error] carries the response status to send (400
    malformed, 413/414/431 over limits, 501 transfer-encoding, 505 bad
    version).  Total: never raises. *)

(** {1 Responses} *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?headers:(string * string) list -> ?content_type:string -> int -> string ->
  response
(** [response status body]; [content_type] defaults to
    [text/plain; charset=utf-8], the reason phrase to the standard one
    for [status].  [Content-Length] is added at write time. *)

val json_response : ?status:int -> Conferr_obsv.Json.t -> response

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, calling [Unix.write] until every byte is
    out.  Each reply and each chunk is handed to one call: the daemon's
    sockets have Nagle's algorithm off, so every call leaves at once. *)

(** {1 Connection loop} *)

type handler =
  request ->
  [ `Response of response
  | `Stream of (string * string) list * ((string -> unit) -> unit) ]
(** [`Stream (headers, produce)] sends a chunked response: [produce]
    is handed a [write] function and each call becomes one chunk; the
    stream (and connection) closes when [produce] returns. *)

val serve_connection : handler -> Unix.file_descr -> unit
(** Run the keep-alive loop on one accepted socket until the peer
    closes, a parse error is answered, or a stream completes.  Handler
    exceptions become a 500; socket errors close quietly.  Never
    raises, never exits the process. *)

(** {1 Client-side helpers} *)

val parse_response_head :
  reader -> (int * (string * string) list, string) result
(** Status line + headers (names lowercased) of a response. *)

val read_body :
  reader -> headers:(string * string) list ->
  on_chunk:(string -> unit) -> (unit, string) result
(** Read a response body: by [Content-Length], chunked
    ([Transfer-Encoding: chunked]), or until EOF when neither is
    present.  Data is delivered incrementally through [on_chunk]. *)
