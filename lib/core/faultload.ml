let journal_scenarios ~seed sut base =
  let typo =
    Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create seed)
      ~faultload:Campaign.paper_faultload sut base
  in
  let semantic =
    let relabel codec =
      Dnsmodel.Rfc1912.scenarios ~codec ~faults:Dnsmodel.Rfc1912.all_faults base
      |> Errgen.Scenario.relabel_ids ~prefix:"semantic"
    in
    match sut.Suts.Sut.sut_name with
    | "bind" -> relabel (Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones)
    | "djbdns" -> relabel (Dnsmodel.Codec.tinydns ~file:Suts.Mini_djbdns.data_file)
    | _ -> []
  in
  typo @ semantic

let by_id scenarios =
  let tbl = Hashtbl.create (List.length scenarios * 2) in
  List.iter
    (fun (sc : Errgen.Scenario.t) ->
      if not (Hashtbl.mem tbl sc.id) then Hashtbl.add tbl sc.id sc)
    scenarios;
  Hashtbl.find_opt tbl
