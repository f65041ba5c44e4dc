module Record = Dnsmodel.Record
module Zone = Dnsmodel.Zone

let soa =
  Record.Soa
    { mname = "ns1.example.com."; rname = "hm.example.com."; serial = 1; refresh = 2;
      retry = 3; expire = 4; minimum = 5 }

let base_records =
  [
    Record.make "example.com." soa;
    Record.make "example.com." (Record.Ns "ns1.example.com.");
    Record.make "ns1.example.com." (Record.A "10.0.0.1");
    Record.make "www.example.com." (Record.A "10.0.0.2");
    Record.make "ftp.example.com." (Record.Cname "www.example.com.");
    Record.make "example.com." (Record.Mx (10, "mail.example.com."));
    Record.make "mail.example.com." (Record.A "10.0.0.3");
  ]

let zone = Zone.make ~origin:"example.com." base_records

let test_rtype () =
  Alcotest.(check (list string))
    "types"
    [ "SOA"; "NS"; "A"; "A"; "CNAME"; "MX"; "A" ]
    (List.map Record.rtype base_records)

let test_target () =
  Alcotest.(check (option string)) "cname target" (Some "www.example.com.")
    (Record.target (List.nth base_records 4));
  Alcotest.(check (option string)) "a has none" None
    (Record.target (List.nth base_records 2))

let test_tags () =
  let r = Record.make ~tags:[ ("file", "zone1") ] "a.example.com." (Record.A "1.2.3.4") in
  Alcotest.(check (option string)) "tag" (Some "zone1") (Record.tag r "file");
  let r2 = { r with tags = [ ("file", "zone2") ] } in
  Alcotest.(check (option string)) "replaced" (Some "zone2") (Record.tag r2 "file");
  Alcotest.(check bool) "equal ignores tags" true (Record.equal r r2)

let test_find () =
  Alcotest.(check int) "records at apex" 3
    (List.length (Zone.find zone ~owner:"example.com."));
  Alcotest.(check int) "by type" 1
    (List.length (Zone.find_rtype zone ~owner:"example.com." ~rtype:"MX"));
  Alcotest.(check int) "case-insensitive lookup" 1
    (List.length (Zone.find zone ~owner:"WWW.EXAMPLE.COM."))

let test_owners_order () =
  Alcotest.(check (list string))
    "distinct first-appearance"
    [ "example.com."; "ns1.example.com."; "www.example.com."; "ftp.example.com.";
      "mail.example.com." ]
    (Zone.owners zone)

let test_soa () =
  Alcotest.(check bool) "found" true (Zone.soa zone <> None);
  let no_soa = Zone.make ~origin:"example.com." (List.tl base_records) in
  Alcotest.(check bool) "missing" true (Zone.soa no_soa = None)

let test_add_remove_replace () =
  let extra = Record.make "new.example.com." (Record.A "10.0.0.9") in
  let z = Zone.add zone extra in
  Alcotest.(check int) "added" (List.length base_records + 1) (List.length z.Zone.records);
  let z = Zone.remove z extra in
  Alcotest.(check int) "removed" (List.length base_records) (List.length z.Zone.records);
  let old_record = List.nth base_records 3 in
  let fresh = Record.make "www.example.com." (Record.A "10.9.9.9") in
  let z = Zone.replace zone ~old_record fresh in
  Alcotest.(check bool) "replaced" true
    (List.exists (fun r -> Record.equal r fresh) z.Zone.records)

let test_validate_clean () =
  Alcotest.(check int) "no problems" 0 (List.length (Zone.validate zone))

let test_validate_cname_collision () =
  let bad = Zone.add zone (Record.make "www.example.com." (Record.Cname "ns1.example.com.")) in
  Alcotest.(check bool) "collision reported" true
    (List.exists
       (function Zone.Cname_and_other_data o -> o = "www.example.com." | _ -> false)
       (Zone.validate bad))

let test_validate_mx_alias () =
  let bad =
    Zone.add
      (Zone.remove zone (List.nth base_records 5))
      (Record.make "example.com." (Record.Mx (10, "ftp.example.com.")))
  in
  Alcotest.(check bool) "mx alias reported" true
    (List.exists
       (function Zone.Mx_target_is_alias _ -> true | _ -> false)
       (Zone.validate bad))

let test_validate_ns_alias () =
  let bad =
    Zone.add zone (Record.make "sub.example.com." (Record.Ns "ftp.example.com."))
  in
  Alcotest.(check bool) "ns alias reported" true
    (List.exists
       (function Zone.Ns_target_is_alias _ -> true | _ -> false)
       (Zone.validate bad))

let test_validate_missing_soa () =
  let no_soa = Zone.make ~origin:"example.com." (List.tl base_records) in
  Alcotest.(check bool) "missing soa reported" true
    (List.mem Zone.Missing_soa (Zone.validate no_soa))

let suite =
  [
    Alcotest.test_case "rtype" `Quick test_rtype;
    Alcotest.test_case "target" `Quick test_target;
    Alcotest.test_case "tags" `Quick test_tags;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "owners order" `Quick test_owners_order;
    Alcotest.test_case "soa" `Quick test_soa;
    Alcotest.test_case "add/remove/replace" `Quick test_add_remove_replace;
    Alcotest.test_case "validate clean" `Quick test_validate_clean;
    Alcotest.test_case "validate cname collision" `Quick test_validate_cname_collision;
    Alcotest.test_case "validate mx alias" `Quick test_validate_mx_alias;
    Alcotest.test_case "validate ns alias" `Quick test_validate_ns_alias;
    Alcotest.test_case "validate missing soa" `Quick test_validate_missing_soa;
  ]
