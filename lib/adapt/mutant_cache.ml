module Engine = Conferr.Engine
module Scenario = Errgen.Scenario

type t = { table : (string, string) Hashtbl.t }

type verdict =
  | Fresh of string
  | Duplicate_of of { digest : string; first_id : string }
  | Inexpressible of string

let create () = { table = Hashtbl.create 256 }

let digest_files files =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, text) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf text;
      Buffer.add_char buf '\x01')
    files;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let classify t ~sut ~base (s : Scenario.t) =
  match Engine.materialize ~sut ~base s with
  | Error msg -> Inexpressible msg
  | Ok files ->
    let digest = digest_files files in
    (match Hashtbl.find_opt t.table digest with
     | Some first_id -> Duplicate_of { digest; first_id }
     | None ->
       Hashtbl.add t.table digest s.id;
       Fresh digest)
