module Json = Conferr_obsv.Json

let with_connection ?(host = "127.0.0.1") ~port f =
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> Error (Printf.sprintf "invalid host %S" host)
  | addr -> (
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect sock (Unix.ADDR_INET (addr, port)) with
        | () -> f sock
        | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s:%d: %s" host port
               (Unix.error_message err))))

let send fd ~meth ~path ?body () =
  let body_part =
    match body with
    | None -> "\r\n"
    | Some b ->
      Printf.sprintf
        "content-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
        (String.length b) b
  in
  Http.write_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nhost: conferr\r\nconnection: close\r\n%s"
       meth path body_part)

let request ?host ~port ~meth ~path ?body () =
  with_connection ?host ~port (fun sock ->
      send sock ~meth ~path ?body ();
      let r = Http.reader_of_fd sock in
      match Http.parse_response_head r with
      | Error msg -> Error msg
      | Ok (status, headers) -> (
        let buf = Buffer.create 256 in
        match Http.read_body r ~headers ~on_chunk:(Buffer.add_string buf) with
        | Error msg -> Error msg
        | Ok () -> Ok (status, headers, Buffer.contents buf)))

let stream ?host ~port ~path ~on_line () =
  with_connection ?host ~port (fun sock ->
      send sock ~meth:"GET" ~path ();
      let r = Http.reader_of_fd sock in
      match Http.parse_response_head r with
      | Error msg -> Error msg
      | Ok (status, headers) -> (
        (* chunks are arbitrary slices; reassemble lines across them *)
        let carry = Buffer.create 256 in
        let feed data =
          Buffer.add_string carry data;
          let text = Buffer.contents carry in
          Buffer.clear carry;
          let rec split from =
            match String.index_from_opt text from '\n' with
            | None ->
              Buffer.add_substring carry text from (String.length text - from)
            | Some i ->
              on_line (String.sub text from (i - from));
              split (i + 1)
          in
          split 0
        in
        match Http.read_body r ~headers ~on_chunk:feed with
        | Error msg -> Error msg
        | Ok () ->
          if Buffer.length carry > 0 then on_line (Buffer.contents carry);
          Ok status))

let parse_json_response = function
  | Error msg -> Error msg
  | Ok (status, _headers, body) -> (
    match Json.of_string (String.trim body) with
    | Ok json -> Ok (status, json)
    | Error _ -> Ok (status, Json.Str body))

let get_json ?host ~port ~path () =
  parse_json_response (request ?host ~port ~meth:"GET" ~path ())

let post_json ?host ~port ~path body () =
  parse_json_response
    (request ?host ~port ~meth:"POST" ~path ~body:(Json.to_string body) ())
