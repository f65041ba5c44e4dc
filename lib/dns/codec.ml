module Node = Conftree.Node
module Config_set = Conftree.Config_set
module Strutil = Conferr_util.Strutil

type t = {
  codec_name : string;
  decode : Config_set.t -> (Record.t list, string) result;
  encode : Record.t list -> Config_set.t -> (Config_set.t, string) result;
}

let tag_file = "file"
let tag_combined = "combined"
let tag_group = "group"

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

(* ------------------------------------------------------------------ *)
(* BIND master files                                                    *)
(* ------------------------------------------------------------------ *)

let fields_of s =
  (* RFC 1035 grouping parentheses are pure layout. *)
  Strutil.fields (String.map (fun c -> if c = '(' || c = ')' then ' ' else c) s)

let strip_quotes s =
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else s

let parse_rdata ~origin ~rtype rdata =
  let name n = Name.normalize ~origin n in
  let fields = fields_of rdata in
  match (String.uppercase_ascii rtype, fields) with
  | "A", [ ip ] -> Ok (Record.A ip)
  | "NS", [ n ] -> Ok (Record.Ns (name n))
  | "CNAME", [ n ] -> Ok (Record.Cname (name n))
  | "PTR", [ n ] -> Ok (Record.Ptr (name n))
  | "MX", [ pref; x ] ->
    (match int_of_string_opt pref with
     | Some p -> Ok (Record.Mx (p, name x))
     | None -> Error (Printf.sprintf "MX preference %S is not a number" pref))
  | "TXT", _ -> Ok (Record.Txt (strip_quotes (Strutil.trim rdata)))
  | "RP", [ mbox; txt ] -> Ok (Record.Rp (name mbox, name txt))
  | "HINFO", [ cpu; os ] -> Ok (Record.Hinfo (strip_quotes cpu, strip_quotes os))
  | "SOA", [ mname; rname; serial; refresh; retry; expire; minimum ] ->
    let num s =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "SOA field %S is not a number" s)
    in
    let* serial = num serial in
    let* refresh = num refresh in
    let* retry = num retry in
    let* expire = num expire in
    let* minimum = num minimum in
    Ok (Record.Soa
          { mname = name mname; rname = name rname; serial; refresh; retry; expire;
            minimum })
  | t, _ -> Error (Printf.sprintf "unsupported rdata for type %s: %S" t rdata)

let render_rdata = function
  | Record.A ip -> ip
  | Record.Ns n | Record.Cname n | Record.Ptr n -> n
  | Record.Mx (pref, x) -> Printf.sprintf "%d %s" pref x
  | Record.Txt s -> Printf.sprintf "%S" s
  | Record.Rp (mbox, txt) -> Printf.sprintf "%s %s" mbox txt
  | Record.Hinfo (cpu, os) -> Printf.sprintf "%S %S" cpu os
  | Record.Soa s ->
    Printf.sprintf "%s %s %d %d %d %d %d" s.mname s.rname s.serial s.refresh s.retry
      s.expire s.minimum

let decode_bind_file ~file ~origin tree =
  let default_ttl =
    Node.find_first
      (fun n -> n.Node.kind = Node.kind_directive && String.uppercase_ascii n.name = "$TTL")
      tree
    |> Option.map (fun (_, n) -> Node.value_or ~default:"86400" n)
    |> Option.map int_of_string_opt
    |> Option.join
    |> Option.value ~default:86400
  in
  (* $ORIGIN switches the effective origin for subsequent records. *)
  let decode_one (current_origin, acc) (n : Node.t) =
    if n.kind = Node.kind_directive && String.uppercase_ascii n.name = "$ORIGIN" then
      let new_origin = Name.normalize (Node.value_or ~default:current_origin n) in
      Ok (new_origin, acc)
    else if n.kind = Node.kind_record then begin
      let origin = current_origin in
      let owner_text = Option.value ~default:"@" (Node.attr n "owner") in
      let owner = Name.normalize ~origin owner_text in
      let rtype = Option.value ~default:"" (Node.attr n "type") in
      let ttl =
        Node.attr n "ttl" |> Option.map int_of_string_opt |> Option.join
        |> Option.value ~default:default_ttl
      in
      let* rdata = parse_rdata ~origin ~rtype (Node.value_or ~default:"" n) in
      Ok (current_origin, Record.make ~ttl ~tags:[ (tag_file, file) ] owner rdata :: acc)
    end
    else Ok (current_origin, acc)
  in
  let* _, reversed =
    List.fold_left
      (fun acc n -> Result.bind acc (fun state -> decode_one state n))
      (Ok (Name.normalize origin, []))
      tree.Node.children
  in
  Ok (List.rev reversed)

let encode_bind_file ~file ~origin records original_tree =
  (* Keep leading directives and comments; replace the record block. *)
  let keep =
    List.filter
      (fun (n : Node.t) -> n.kind = Node.kind_directive || n.kind = Node.kind_comment)
      original_tree.Node.children
  in
  let record_nodes =
    List.map
      (fun (r : Record.t) ->
        Formats.Bindzone.record
          ~name:(Name.relative_to ~origin r.owner)
          ~rtype:(Record.rtype r) (render_rdata r.rdata))
      records
  in
  ignore file;
  Node.root (keep @ record_nodes)

let bind ~zones =
  let decode set =
    map_result
      (fun (file, origin) ->
        match Config_set.find set file with
        | None -> Error (Printf.sprintf "zone file %S missing from configuration set" file)
        | Some tree -> decode_bind_file ~file ~origin tree)
      zones
    |> Result.map List.concat
  in
  let encode records set =
    List.fold_left
      (fun acc (file, origin) ->
        let* set = acc in
        match Config_set.find set file with
        | None -> Error (Printf.sprintf "zone file %S missing from configuration set" file)
        | Some original ->
          let mine =
            List.filter (fun r -> Record.tag r tag_file = Some file) records
          in
          Ok (Config_set.add set file (encode_bind_file ~file ~origin mine original)))
      (Ok set) zones
  in
  { codec_name = "bind"; decode; encode }

(* ------------------------------------------------------------------ *)
(* tinydns-data                                                         *)
(* ------------------------------------------------------------------ *)

let host_name ~fqdn x =
  (* tinydns rule of thumb: a bare host label belongs to the entry's
     domain. *)
  if String.contains x '.' then Name.normalize x else Name.normalize (x ^ "." ^ fqdn)

let default_soa ~fqdn ~mname =
  Record.Soa
    {
      mname;
      rname = Name.normalize ("hostmaster." ^ fqdn);
      serial = 1;
      refresh = 16384;
      retry = 2048;
      expire = 1048576;
      minimum = 2560;
    }

let decode_tinydns_entry ~file idx (n : Node.t) =
  let op = Option.value ~default:"?" (Node.attr n "op") in
  let fqdn = Name.normalize n.name in
  let fields = Formats.Tinydns.fields n in
  let field i = List.nth_opt fields i in
  let ttl_of i =
    field i |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:86400
  in
  let base_tags = [ (tag_file, file) ] in
  let group_tags = (tag_group, string_of_int idx) :: base_tags in
  let combined_tags = (tag_combined, string_of_int idx) :: base_tags in
  match (op, fields) with
  | "=", ip :: _ ->
    let ttl = ttl_of 1 in
    (match Name.reverse_of_ipv4 ip with
     | None -> Error (Printf.sprintf "entry %d: %S is not an IPv4 address" idx ip)
     | Some rev ->
       Ok
         [
           Record.make ~ttl ~tags:combined_tags fqdn (Record.A ip);
           Record.make ~ttl ~tags:combined_tags rev (Record.Ptr fqdn);
         ])
  | "+", ip :: _ -> Ok [ Record.make ~ttl:(ttl_of 1) ~tags:base_tags fqdn (Record.A ip) ]
  | "^", p :: _ ->
    Ok [ Record.make ~ttl:(ttl_of 1) ~tags:base_tags fqdn (Record.Ptr (Name.normalize p)) ]
  | "C", p :: _ ->
    Ok
      [ Record.make ~ttl:(ttl_of 1) ~tags:base_tags fqdn (Record.Cname (Name.normalize p)) ]
  | "@", ip :: x :: rest ->
    let dist =
      match rest with d :: _ -> Option.value ~default:0 (int_of_string_opt d) | [] -> 0
    in
    let exchange = host_name ~fqdn x in
    let mx = Record.make ~tags:group_tags fqdn (Record.Mx (dist, exchange)) in
    if ip = "" then Ok [ mx ]
    else Ok [ mx; Record.make ~tags:group_tags exchange (Record.A ip) ]
  | ".", ip :: x :: _ | "&", ip :: x :: _ ->
    let ns = host_name ~fqdn:("ns." ^ fqdn) x in
    let ns_record = Record.make ~tags:group_tags fqdn (Record.Ns ns) in
    let soa_records =
      if op = "." then
        [ Record.make ~tags:group_tags fqdn (default_soa ~fqdn ~mname:ns) ]
      else []
    in
    let a_records =
      if ip = "" then [] else [ Record.make ~tags:group_tags ns (Record.A ip) ]
    in
    Ok (soa_records @ (ns_record :: a_records))
  | "'", s :: _ -> Ok [ Record.make ~ttl:(ttl_of 1) ~tags:base_tags fqdn (Record.Txt s) ]
  | "Z", mname :: rname :: rest ->
    let num i d =
      List.nth_opt rest i |> Option.map int_of_string_opt |> Option.join
      |> Option.value ~default:d
    in
    Ok
      [
        Record.make ~tags:base_tags fqdn
          (Record.Soa
             {
               mname = Name.normalize mname;
               rname = Name.normalize rname;
               serial = num 0 1;
               refresh = num 1 16384;
               retry = num 2 2048;
               expire = num 3 1048576;
               minimum = num 4 2560;
             });
      ]
  | op, _ -> Error (Printf.sprintf "entry %d: cannot decode operator %S" idx op)

let decode_tinydns ~file set =
  match Config_set.find set file with
  | None -> Error (Printf.sprintf "data file %S missing from configuration set" file)
  | Some tree ->
    let entries =
      Node.find_all (fun n -> n.Node.kind = Node.kind_record) tree |> List.map snd
    in
    let* record_lists =
      map_result
        (fun (idx, n) -> decode_tinydns_entry ~file idx n)
        (List.mapi (fun i n -> (i, n)) entries)
    in
    Ok (List.concat record_lists)

(* Group records that originated in one source line back together. *)
let partition_by_tag key records =
  let table = Hashtbl.create 8 in
  let loose = ref [] in
  List.iter
    (fun r ->
      match Record.tag r key with
      | Some id ->
        Hashtbl.replace table id (r :: (try Hashtbl.find table id with Not_found -> []))
      | None -> loose := r :: !loose)
    records;
  let groups = Hashtbl.fold (fun id rs acc -> (id, List.rev rs) :: acc) table [] in
  (List.sort (fun (a, _) (b, _) -> compare a b) groups, List.rev !loose)

let encode_one_record (r : Record.t) =
  let name = r.owner in
  match r.rdata with
  | Record.A ip -> Ok (Formats.Tinydns.entry ~op:'+' ~name [ ip ])
  | Record.Ptr p -> Ok (Formats.Tinydns.entry ~op:'^' ~name [ p ])
  | Record.Cname p -> Ok (Formats.Tinydns.entry ~op:'C' ~name [ p ])
  | Record.Mx (dist, x) ->
    Ok (Formats.Tinydns.entry ~op:'@' ~name [ ""; x; string_of_int dist ])
  | Record.Ns n -> Ok (Formats.Tinydns.entry ~op:'&' ~name [ ""; n ])
  | Record.Txt s -> Ok (Formats.Tinydns.entry ~op:'\'' ~name [ s ])
  | Record.Soa s ->
    Ok
      (Formats.Tinydns.entry ~op:'Z' ~name
         [
           s.mname; s.rname; string_of_int s.serial; string_of_int s.refresh;
           string_of_int s.retry; string_of_int s.expire; string_of_int s.minimum;
         ])
  | Record.Rp _ | Record.Hinfo _ ->
    Error
      (Printf.sprintf "the tinydns-data format cannot express %s records"
         (Record.rtype r))

let encode_combined_group (id, records) =
  (* A '=' line is expressible only while both halves survive intact and
     still agree with each other. *)
  let a_records, others =
    List.partition (fun r -> Record.rtype r = "A") records
  in
  match (a_records, others) with
  | [ a ], [ b ] when Record.rtype b = "PTR" ->
    (match (a.Record.rdata, b.Record.rdata) with
     | Record.A ip, Record.Ptr target
       when Name.reverse_of_ipv4 ip = Some b.Record.owner
            && Name.normalize target = a.Record.owner ->
       Ok (Formats.Tinydns.entry ~op:'=' ~name:a.Record.owner [ ip ])
     | _, _ ->
       Error
         (Printf.sprintf
            "combined '=' entry %s: the mutated A/PTR pair no longer matches, \
             fault is not expressible in tinydns-data"
            id))
  | _, _ ->
    Error
      (Printf.sprintf
         "combined '=' entry %s lost one of its records: an A without its PTR \
          (or vice versa) cannot be written in tinydns-data"
         id)

let encode_tinydns ~file records set =
  match Config_set.find set file with
  | None -> Error (Printf.sprintf "data file %S missing from configuration set" file)
  | Some original ->
    let mine = List.filter (fun r -> Record.tag r tag_file = Some file) records in
    let combined, rest = partition_by_tag tag_combined mine in
    let* combined_nodes = map_result encode_combined_group combined in
    (* Line groups ('.', '&', '@') decompose into individual entries when
       mutated, so they never block serialization. *)
    let groups, loose = partition_by_tag tag_group rest in
    let* group_nodes =
      map_result
        (fun (_, rs) -> map_result encode_one_record rs)
        groups
      |> Result.map List.concat
    in
    let* loose_nodes = map_result encode_one_record loose in
    let comments =
      List.filter
        (fun (n : Node.t) -> n.kind = Node.kind_comment)
        original.Node.children
    in
    Ok
      (Config_set.add set file
         (Node.root (comments @ combined_nodes @ group_nodes @ loose_nodes)))

let tinydns ~file =
  {
    codec_name = "tinydns";
    decode = decode_tinydns ~file;
    encode = encode_tinydns ~file;
  }
