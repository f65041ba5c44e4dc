(* Property tests for the DNS codecs over generated record sets. *)

module Codec = Dnsmodel.Codec
module Record = Dnsmodel.Record
module Config_set = Conftree.Config_set
module Node = Conftree.Node

let bind_codec = Codec.bind ~zones:[ ("zone", "example.com.") ]

(* An empty skeleton zone file the encoder can write into. *)
let skeleton =
  Config_set.of_list
    [ ("zone", Node.root [ Node.directive ~value:"86400" "$TTL" ]) ]

let summary records =
  List.map
    (fun (r : Record.t) -> (r.owner, Record.rtype r, Record.to_string r))
    records
  |> List.sort compare

let prop_bind_encode_decode_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"codec: bind encode then decode preserves the record set"
    Gen.record_set_gen
    (fun records ->
      match bind_codec.Codec.encode records skeleton with
      | Error _ -> false
      | Ok set ->
        (* re-parse through the actual text format, like the engine does *)
        (match Config_set.find set "zone" with
         | None -> false
         | Some tree ->
           (match Formats.Bindzone.serialize tree with
            | Error _ -> false
            | Ok text ->
              (match Formats.Bindzone.parse text with
               | Error _ -> false
               | Ok tree' ->
                 (match
                    bind_codec.Codec.decode (Config_set.of_list [ ("zone", tree') ])
                  with
                  | Error _ -> false
                  | Ok records' -> summary records = summary records')))))

let prop_bind_encode_total =
  QCheck2.Test.make ~count:200 ~name:"codec: bind can express any generated record set"
    Gen.record_set_gen
    (fun records -> Result.is_ok (bind_codec.Codec.encode records skeleton))

let tinydns_codec = Codec.tinydns ~file:"data"

let tinydns_skeleton = Config_set.of_list [ ("data", Node.root []) ]

let retag records =
  List.map
    (fun (r : Record.t) ->
      { r with tags = (Codec.tag_file, "data") :: List.remove_assoc Codec.tag_file r.tags })
    records

let prop_tinydns_roundtrip_untangled =
  (* generated records carry no combined groups, so tinydns can always
     express them individually *)
  QCheck2.Test.make ~count:200
    ~name:"codec: tinydns roundtrips record sets without combined pairs"
    Gen.record_set_gen
    (fun records ->
      let records = retag records in
      match tinydns_codec.Codec.encode records tinydns_skeleton with
      | Error _ -> false
      | Ok set ->
        (match tinydns_codec.Codec.decode set with
         | Error _ -> false
         | Ok records' ->
           (* NS entries regain implicit structure on decode; compare a
              weaker invariant: every original owner/type pair survives *)
           List.for_all
             (fun (r : Record.t) ->
               List.exists
                 (fun (r' : Record.t) ->
                   r'.owner = r.owner && Record.rtype r' = Record.rtype r)
                 records')
             records))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bind_encode_decode_roundtrip;
    QCheck_alcotest.to_alcotest prop_bind_encode_total;
    QCheck_alcotest.to_alcotest prop_tinydns_roundtrip_untangled;
  ]
