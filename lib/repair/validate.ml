module Finding = Conferr_lint.Finding
module Checker = Conferr_lint.Checker

type verdict = {
  candidate : Generate.candidate;
  distance : int;
  lint_clean : bool;
  sut_ok : bool;
  outcome : string;
  files : (string * string) list;
  repaired : Conftree.Config_set.t option;
  error : string option;
}

let ok v = v.lint_clean && v.sut_ok

type staged = {
  candidate : Generate.candidate;
  distance : int;
  serialized : ((string * string) list, string) result;
}

let stage ~sut ~broken (candidate : Generate.candidate) =
  {
    candidate;
    distance = Redit.total_cost ~broken candidate.edits;
    serialized =
      Result.bind (Redit.apply broken candidate.edits)
        (Conferr.Engine.serialize_config sut);
  }

type judgement = {
  reparsed : Conftree.Config_set.t;
  clean : bool;
  booted : Conferr.Outcome.t;
}

let judge ?(nearest = Generate.default_nearest) ~sut ~rules files =
  Conferr.Engine.parse_config sut files
  |> Result.map (fun reparsed ->
         let findings = Checker.run ~nearest ~rules reparsed in
         let clean = not (Checker.exceeds ~threshold:Finding.Warning findings) in
         { reparsed; clean; booted = Conferr.Engine.boot_and_test sut files })

let failed (s : staged) error : verdict =
  {
    candidate = s.candidate;
    distance = s.distance;
    lint_clean = false;
    sut_ok = false;
    outcome = "";
    files = [];
    repaired = None;
    error = Some error;
  }

let verdict ~judgement (s : staged) : verdict =
  match s.serialized with
  | Error msg -> failed s msg
  | Ok files -> (
    match judgement files with
    | Error msg -> failed s msg
    | Ok j ->
      {
        candidate = s.candidate;
        distance = s.distance;
        lint_clean = j.clean;
        sut_ok = j.booted = Conferr.Outcome.Passed;
        outcome = Conferr.Outcome.label j.booted;
        files;
        repaired = Some j.reparsed;
        error = None;
      })
