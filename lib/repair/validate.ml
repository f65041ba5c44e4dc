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

let failed candidate ~distance error =
  {
    candidate;
    distance;
    lint_clean = false;
    sut_ok = false;
    outcome = "";
    files = [];
    repaired = None;
    error = Some error;
  }

let check ?(nearest = Generate.default_nearest) ~sut ~rules ~broken candidate =
  let distance = Redit.total_cost ~broken candidate.Generate.edits in
  match Redit.apply broken candidate.Generate.edits with
  | Error msg -> failed candidate ~distance msg
  | Ok repaired_tree -> (
    match Conferr.Engine.serialize_config sut repaired_tree with
    | Error msg -> failed candidate ~distance msg
    | Ok files -> (
      match Conferr.Engine.parse_config sut files with
      | Error msg -> failed candidate ~distance msg
      | Ok reparsed ->
        let findings = Checker.run ~nearest ~rules reparsed in
        let lint_clean =
          not (Checker.exceeds ~threshold:Finding.Warning findings)
        in
        let outcome = Conferr.Engine.boot_and_test sut files in
        {
          candidate;
          distance;
          lint_clean;
          sut_ok = outcome = Conferr.Outcome.Passed;
          outcome = Conferr.Outcome.label outcome;
          files;
          repaired = Some reparsed;
          error = None;
        }))
