module Rng = Conferr_util.Rng

type section = { title : string; body : string }

type t = { sut_name : string; version : string; sections : section list }

let profile_sections ~seed ~faultload sut =
  let rng = Rng.create seed in
  match Engine.parse_default_config sut with
  | Error msg -> ([ { title = "Error"; body = msg } ], [])
  | Ok base ->
    let scenarios = Campaign.typo_scenarios ~rng ~faultload sut base in
    let profile = Engine.run_from ~sut ~base ~scenarios () in
    let ignored =
      List.filter_map
        (fun (e : Profile.entry) ->
          if e.outcome = Outcome.Passed then Some e.description else None)
        profile.Profile.entries
    in
    ( [
        { title = "Resilience to typos"; body = Profile.render profile };
        {
          title = "Outcomes by cognitive level";
          body = Profile.render_by_cognitive_level profile;
        };
      ],
      ignored )

let variations_section ~seed ~excluded sut =
  let t = Structural_check.run ~rng:(Rng.create seed) ~excluded ~sut () in
  let rows =
    List.map
      (fun (r : Structural_check.row) ->
        Printf.sprintf "  %-32s %s"
          (Errgen.Variations.class_title r.class_name)
          (Structural_check.support_label r.support))
      t.Structural_check.rows
  in
  {
    title = "Structural variations accepted";
    body =
      String.concat "\n"
        (rows
        @ [
            Printf.sprintf "  %% of assumptions satisfied: %.0f%%"
              t.Structural_check.satisfied_percent;
            "";
          ]);
  }

let semantic_section ~codec sut =
  match Engine.parse_default_config sut with
  | Error msg -> { title = "Semantic errors"; body = msg }
  | Ok base ->
    let scenarios =
      Dnsmodel.Rfc1912.scenarios ~codec ~faults:Dnsmodel.Rfc1912.all_faults base
      |> Errgen.Scenario.relabel_ids ~prefix:"semantic"
    in
    let profile = Engine.run_from ~sut ~base ~scenarios () in
    { title = "Semantic errors (RFC-1912)"; body = Profile.render profile }

let generate ?(seed = 42) ?(faultload = Campaign.paper_faultload)
    ?(excluded_variations = []) ?semantic_codec (sut : Suts.Sut.t) =
  let profile_secs, ignored = profile_sections ~seed ~faultload sut in
  let weakness_section =
    if ignored = [] then []
    else
      [
        {
          title = "Silently accepted mutations (latent-error candidates)";
          body =
            String.concat "\n"
              (List.map (fun d -> "  - " ^ d)
                 (List.filteri (fun i _ -> i < 15) ignored)
              @
              (if List.length ignored > 15 then
                 [ Printf.sprintf "  ... and %d more" (List.length ignored - 15) ]
               else [])
              @ [ "" ]);
        };
      ]
  in
  let semantic_secs =
    match semantic_codec with
    | None -> []
    | Some codec -> [ semantic_section ~codec sut ]
  in
  {
    sut_name = sut.sut_name;
    version = sut.version;
    sections =
      profile_secs
      @ [ variations_section ~seed ~excluded:excluded_variations sut ]
      @ semantic_secs @ weakness_section;
  }

let render t =
  let header = Printf.sprintf "# ConfErr assessment: %s\n" t.version in
  let body =
    List.map (fun s -> Printf.sprintf "## %s\n\n%s" s.title s.body) t.sections
  in
  String.concat "\n" (header :: body)
