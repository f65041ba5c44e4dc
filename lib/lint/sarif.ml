module Json = Conferr_obsv.Json

let level_of_severity = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"
  | Finding.Info -> "note"

let location ~file ~address =
  Json.Obj
    [
      ( "physicalLocation",
        Json.Obj [ ("artifactLocation", Json.Obj [ ("uri", Json.Str file) ]) ]
      );
      ( "logicalLocations",
        Json.Arr [ Json.Obj [ ("fullyQualifiedName", Json.Str address) ] ] );
    ]

let result (f : Finding.t) =
  let message =
    match f.suggestion with
    | None -> f.message
    | Some s -> Printf.sprintf "%s (did you mean '%s'?)" f.message s
  in
  let base =
    [
      ("ruleId", Json.Str f.rule_id);
      ("level", Json.Str (level_of_severity f.severity));
      ("message", Json.Obj [ ("text", Json.Str message) ]);
      ("locations", Json.Arr [ location ~file:f.file ~address:f.address ]);
    ]
  in
  let related =
    match f.related with
    | [] -> []
    | sites ->
      [
        ( "relatedLocations",
          Json.Arr
            (List.map
               (fun (file, address) -> location ~file ~address)
               sites) );
      ]
  in
  Json.Obj (base @ related)

let to_json findings =
  let rule_ids =
    List.sort_uniq compare (List.map (fun f -> f.Finding.rule_id) findings)
  in
  Json.Obj
    [
      ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.Arr
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str "conferr");
                            ( "rules",
                              Json.Arr
                                (List.map
                                   (fun id ->
                                     Json.Obj [ ("id", Json.Str id) ])
                                   rule_ids) );
                          ] );
                    ] );
                ("results", Json.Arr (List.map result findings));
              ];
          ] );
    ]

let render findings = Json.to_string (to_json findings) ^ "\n"
