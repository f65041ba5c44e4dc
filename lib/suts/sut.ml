type test_result = { test_name : string; passed : bool; detail : string }

type instance = { run_tests : unit -> test_result list; shutdown : unit -> unit }

type t = {
  sut_name : string;
  version : string;
  config_files : (string * Formats.Registry.t) list;
  default_config : (string * string) list;
  boot : (string * string) list -> (instance, string) result;
}

let passed test_name = { test_name; passed = true; detail = "" }

let failed test_name detail = { test_name; passed = false; detail }

type problem = {
  file : string;
  path : Conftree.Path.t;
  message : string;
  suggestion : string option;
}

type report = problem -> unit

let first_problem walk =
  let exception Stop of string in
  match walk (fun p -> raise (Stop p.message)) with
  | v -> Ok v
  | exception Stop message -> Error message

let all_problems walk =
  let acc = ref [] in
  let v = walk (fun p -> acc := p :: !acc) in
  (List.rev !acc, v)
