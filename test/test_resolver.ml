module Record = Dnsmodel.Record
module Zone = Dnsmodel.Zone
module Resolver = Dnsmodel.Resolver

let soa mname =
  Record.Soa
    { mname; rname = "hm.example.com."; serial = 1; refresh = 2; retry = 3; expire = 4;
      minimum = 5 }

let forward =
  Zone.make ~origin:"example.com."
    [
      Record.make "example.com." (soa "ns1.example.com.");
      Record.make "example.com." (Record.Ns "ns1.example.com.");
      Record.make "www.example.com." (Record.A "10.0.0.2");
      Record.make "ftp.example.com." (Record.Cname "www.example.com.");
      Record.make "chain.example.com." (Record.Cname "ftp.example.com.");
      Record.make "loop1.example.com." (Record.Cname "loop2.example.com.");
      Record.make "loop2.example.com." (Record.Cname "loop1.example.com.");
      Record.make "example.com." (Record.Mx (10, "mail.example.com."));
      Record.make "mail.example.com." (Record.A "10.0.0.3");
      Record.make "sub.example.com." (Record.Txt "hello");
    ]

let reverse =
  Zone.make ~origin:"0.0.10.in-addr.arpa."
    [
      Record.make "0.0.10.in-addr.arpa." (soa "ns1.example.com.");
      Record.make "2.0.0.10.in-addr.arpa." (Record.Ptr "www.example.com.");
    ]

let resolver = Resolver.create [ forward; reverse ]

(* The IPv4 addresses an A query answers with, after CNAME chasing. *)
let lookup_a r name =
  match Resolver.query r ~name ~rtype:"A" with
  | Resolver.Answer records ->
    List.filter_map
      (fun (r : Record.t) -> match r.rdata with Record.A ip -> Some ip | _ -> None)
      records
  | _ -> []

(* The names a PTR query for [ip]'s reverse name answers with. *)
let lookup_ptr r ~ip =
  match Dnsmodel.Name.reverse_of_ipv4 ip with
  | None -> []
  | Some name -> (
    match Resolver.query r ~name ~rtype:"PTR" with
    | Resolver.Answer records ->
      List.filter_map
        (fun (r : Record.t) -> match r.rdata with Record.Ptr n -> Some n | _ -> None)
        records
    | _ -> [])

let test_simple_a () =
  Alcotest.(check (list string)) "a record" [ "10.0.0.2" ]
    (lookup_a resolver "www.example.com")

let test_case_insensitive () =
  Alcotest.(check (list string)) "case folded" [ "10.0.0.2" ]
    (lookup_a resolver "WWW.Example.COM.")

let test_cname_chase () =
  Alcotest.(check (list string)) "through one alias" [ "10.0.0.2" ]
    (lookup_a resolver "ftp.example.com");
  Alcotest.(check (list string)) "through two aliases" [ "10.0.0.2" ]
    (lookup_a resolver "chain.example.com")

let test_cname_answer_includes_chain () =
  match Resolver.query resolver ~name:"ftp.example.com." ~rtype:"A" with
  | Resolver.Answer records ->
    Alcotest.(check (list string)) "chain then target" [ "CNAME"; "A" ]
      (List.map Record.rtype records)
  | _ -> Alcotest.fail "expected an answer"

let test_cname_query_not_chased () =
  match Resolver.query resolver ~name:"ftp.example.com." ~rtype:"CNAME" with
  | Resolver.Answer [ r ] -> Alcotest.(check string) "the cname itself" "CNAME" (Record.rtype r)
  | _ -> Alcotest.fail "expected the CNAME record"

let test_cname_loop () =
  (match Resolver.query resolver ~name:"loop1.example.com." ~rtype:"A" with
   | Resolver.Cname_loop -> ()
   | _ -> Alcotest.fail "expected loop detection")

let test_no_data () =
  match Resolver.query resolver ~name:"sub.example.com." ~rtype:"A" with
  | Resolver.No_data -> ()
  | _ -> Alcotest.fail "expected NoData"

let test_nxdomain () =
  match Resolver.query resolver ~name:"missing.example.com." ~rtype:"A" with
  | Resolver.Nx_domain -> ()
  | _ -> Alcotest.fail "expected NXDOMAIN"

let test_not_authoritative () =
  match Resolver.query resolver ~name:"www.other.org." ~rtype:"A" with
  | Resolver.Not_authoritative -> ()
  | _ -> Alcotest.fail "expected not authoritative"

let test_ptr_lookup () =
  Alcotest.(check (list string)) "reverse" [ "www.example.com." ]
    (lookup_ptr resolver ~ip:"10.0.0.2");
  Alcotest.(check (list string)) "missing reverse" []
    (lookup_ptr resolver ~ip:"10.0.0.3");
  Alcotest.(check (list string)) "malformed ip" []
    (lookup_ptr resolver ~ip:"not-an-ip")

let test_soa_queries () =
  (match Resolver.query resolver ~name:"example.com." ~rtype:"SOA" with
   | Resolver.Answer _ -> ()
   | _ -> Alcotest.fail "forward apex must answer");
  match Resolver.query resolver ~name:"0.0.10.in-addr.arpa." ~rtype:"soa" with
  | Resolver.Answer _ -> ()
  | _ -> Alcotest.fail "reverse apex must answer (case-insensitive type)"

let test_longest_origin_match () =
  let sub =
    Zone.make ~origin:"sub.example.com."
      [
        Record.make "sub.example.com." (soa "ns1.example.com.");
        Record.make "deep.sub.example.com." (Record.A "10.1.1.1");
      ]
  in
  let r = Resolver.create [ forward; sub ] in
  Alcotest.(check (list string)) "delegated zone wins" [ "10.1.1.1" ]
    (lookup_a r "deep.sub.example.com.")

let suite =
  [
    Alcotest.test_case "simple A" `Quick test_simple_a;
    Alcotest.test_case "case-insensitive" `Quick test_case_insensitive;
    Alcotest.test_case "cname chase" `Quick test_cname_chase;
    Alcotest.test_case "answer includes chain" `Quick test_cname_answer_includes_chain;
    Alcotest.test_case "cname query not chased" `Quick test_cname_query_not_chased;
    Alcotest.test_case "cname loop" `Quick test_cname_loop;
    Alcotest.test_case "no data" `Quick test_no_data;
    Alcotest.test_case "nxdomain" `Quick test_nxdomain;
    Alcotest.test_case "not authoritative" `Quick test_not_authoritative;
    Alcotest.test_case "ptr lookup" `Quick test_ptr_lookup;
    Alcotest.test_case "soa queries" `Quick test_soa_queries;
    Alcotest.test_case "longest origin match" `Quick test_longest_origin_match;
  ]
