module Strutil = Conferr_util.Strutil

(* ------------------------------------------------------------------ *)
(* Variable specifications for the [mysqld] namespace                   *)
(* ------------------------------------------------------------------ *)

type bounds = { min : int64; max : int64; default : int64 }

type spec =
  | Size of bounds       (* accepts K/M/G multiplier suffixes *)
  | Int of bounds
  | Bool of bool
  | Path_existing of string      (* simulated filesystem lookup *)
  | Path_any of string
  | Flag                 (* valueless directive *)

let kb = 1024L
let mb = Int64.mul kb 1024L
let gb = Int64.mul mb 1024L

let mysqld_specs =
  [
    ("port", Int { min = 1L; max = 65535L; default = 3306L });
    ("socket", Path_any "/var/run/mysqld/mysqld.sock");
    ("datadir", Path_existing "/var/lib/mysql");
    ("key_buffer_size", Size { min = 8L; max = Int64.mul 4L gb; default = Int64.mul 16L mb });
    ("max_allowed_packet", Size { min = kb; max = gb; default = mb });
    ("table_open_cache", Int { min = 1L; max = 524288L; default = 64L });
    ("sort_buffer_size", Size { min = Int64.mul 32L kb; max = Int64.mul 4L gb; default = Int64.mul 512L kb });
    ("net_buffer_length", Size { min = kb; max = mb; default = Int64.mul 8L kb });
    ("read_buffer_size", Size { min = Int64.mul 8L kb; max = Int64.mul 2L gb; default = Int64.mul 256L kb });
    ("read_rnd_buffer_size", Size { min = 1L; max = Int64.mul 2L gb; default = Int64.mul 512L kb });
    ("myisam_sort_buffer_size", Size { min = Int64.mul 4L kb; max = Int64.mul 4L gb; default = Int64.mul 8L mb });
    ("thread_cache_size", Int { min = 0L; max = 16384L; default = 8L });
    ("max_connections", Int { min = 1L; max = 100000L; default = 100L });
    ("skip_external_locking", Flag);
    ("old_passwords", Bool false);
    ("low_priority_updates", Bool false);
  ]

(* The simulated host filesystem: directories that exist on the test
   machine.  A typo in a path directive almost surely leaves it. *)
let existing_paths =
  [ "/var/lib/mysql"; "/var/run/mysqld"; "/var/log"; "/tmp"; "/usr/share/mysql" ]

(* ------------------------------------------------------------------ *)
(* The quirky value parsers (paper §5.2)                                *)
(* ------------------------------------------------------------------ *)

let multiplier c =
  match Char.uppercase_ascii c with
  | 'K' -> Some kb
  | 'M' -> Some mb
  | 'G' -> Some gb
  | _ -> None

let is_digit c = c >= '0' && c <= '9'

(* How mysqld reads a value, and why: the one classification behind the
   server's startup and the lint rules that tell its silent cases
   apart. *)
type reading =
  | Exact of int64
  | Truncated of int64 * char
  | Valueless
  | Leading_multiplier
  | Out_of_bounds of int64 * bool
  | Ignored_value
  | Taken
  | Refused of string

let not_a_number v = Refused (Printf.sprintf "Wrong value: %S is not a number" v)

let in_bounds b ~scaled n =
  if n >= b.min && n <= b.max then Exact n else Out_of_bounds (n, scaled)

let read_size b v =
  let v = Strutil.trim v in
  if v = "" then Valueless (* flaw: valueless directive accepted *)
  else if multiplier v.[0] <> None then
    Leading_multiplier (* flaw: value starting with a multiplier silently ignored *)
  else if not (is_digit v.[0]) then not_a_number v
  else begin
    let len = String.length v in
    let rec digits i = if i < len && is_digit v.[i] then digits (i + 1) else i in
    let stop = digits 0 in
    match Int64.of_string_opt (String.sub v 0 stop) with
    | None -> not_a_number v
    | Some n when stop = len -> in_bounds b ~scaled:false n
    | Some n -> (
      match multiplier v.[stop] with
      | None -> not_a_number v
      | Some m -> (
        (* flaw: parsing stops at the first multiplier symbol, so
           "1M0" is accepted as 1M and the trailing junk is ignored *)
        match in_bounds b ~scaled:true (Int64.mul n m) with
        | Exact n when stop + 1 < len -> Truncated (n, v.[stop])
        | r -> r))
  end

let read_int b v =
  let v = Strutil.trim v in
  if v = "" then Valueless
  else if String.for_all is_digit v && String.length v <= 18 then
    in_bounds b ~scaled:false (Int64.of_string v) (* flaw: out of bounds is silent *)
  else not_a_number v

type parsed = Accepted of int64 | Defaulted | Rejected of string

let parsed = function
  | Exact n | Truncated (n, _) -> Accepted n
  | Refused m -> Rejected m
  | Valueless | Leading_multiplier | Out_of_bounds _ | Ignored_value | Taken -> Defaulted

let parse_size ~default ~min ~max v = parsed (read_size { min; max; default } v)

let parse_int ~default ~min ~max v = parsed (read_int { min; max; default } v)

let fold_dashes s = String.map (fun c -> if c = '-' then '_' else c) s

let resolve_name name =
  let name = fold_dashes name in
  match List.assoc_opt name mysqld_specs with
  | Some _ -> `Known name
  | None ->
    (* MySQL accepts unambiguous prefixes of variable names. *)
    (match
       List.filter (fun (n, _) -> Strutil.is_prefix ~prefix:name n) mysqld_specs
     with
     | [ (full, _) ] -> `Known full
     | [] -> `Unknown
     | _ :: _ :: _ -> `Ambiguous)

(* ------------------------------------------------------------------ *)
(* The system's own config-file reader                                  *)
(* ------------------------------------------------------------------ *)

type line = Section_header of string | Directive of string * string option | Other

let classify_line raw =
  let trimmed = Strutil.trim raw in
  if trimmed = "" || trimmed.[0] = '#' || trimmed.[0] = ';' then Other
  else if trimmed.[0] = '[' && trimmed.[String.length trimmed - 1] = ']' then
    Section_header (String.sub trimmed 1 (String.length trimmed - 2))
  else
    match Strutil.split_on_first '=' trimmed with
    | Some (name, value) -> Directive (Strutil.trim name, Some (Strutil.trim value))
    | None -> Directive (trimmed, None)

let sections_of_text text =
  let add acc section line =
    match acc with
    | (s, lines) :: rest when s = section -> (s, line :: lines) :: rest
    | _ -> (section, [ line ]) :: acc
  in
  List.fold_left
    (fun (current, acc) raw ->
      match classify_line raw with
      | Section_header s -> (s, acc)
      | Directive (n, v) -> (current, add acc current (n, v))
      | Other -> (current, acc))
    ("", []) (Strutil.lines text)
  |> snd
  |> List.rev_map (fun (s, lines) -> (s, List.rev lines))

let section_directives sections name =
  List.filter (fun (s, _) -> s = name) sections |> List.concat_map snd

let read_value full spec value =
  match spec with
  | Size b -> read_size b (Option.value ~default:"" value)
  | Int b -> read_int b (Option.value ~default:"" value)
  | Flag -> (
    (* flaw: a spurious value after a flag is silently ignored *)
    match value with Some v when Strutil.trim v <> "" -> Ignored_value | _ -> Taken)
  | Bool _ -> (
    match Option.map String.uppercase_ascii value with
    | None | Some ("ON" | "TRUE" | "1" | "OFF" | "FALSE" | "0") -> Taken
    | Some other -> Refused (Printf.sprintf "invalid boolean value '%s' for %s" other full))
  | Path_any _ -> (
    match value with
    | Some v when v <> "" && v.[0] <> '/' ->
      Refused (Printf.sprintf "%s must be an absolute path, got '%s'" full v)
    | Some _ | None -> Taken)
  | Path_existing _ -> (
    match value with
    | Some v when not (List.mem v existing_paths) ->
      Refused (Printf.sprintf "can't read dir of '%s' (Errcode: 2)" v)
    | Some _ | None -> Taken)

type state = { mutable port : int64 }

let apply_mysqld_directive state (name, value) =
  match resolve_name name with
  | `Unknown -> Error (Printf.sprintf "unknown variable '%s'" name)
  | `Ambiguous -> Error (Printf.sprintf "ambiguous option '%s'" name)
  | `Known full -> (
    match read_value full (List.assoc full mysqld_specs) value with
    | Refused msg -> Error msg
    | reading ->
      if full = "port" then
        state.port <- (match parsed reading with Accepted n -> n | _ -> 3306L);
      Ok ())

let functional_tests state () =
  (* The diagnosis script connects with explicit parameters
     (mysql --port=3306 ...), as an administrator checking the default
     install would; it does not read my.cnf, so [client]-section errors
     stay latent, like those of the other auxiliary tools. *)
  let expected_port = 3306L in
  let client =
    if state.port <> expected_port then
      Error
        (Printf.sprintf "mysql: Can't connect to MySQL server on 'localhost:%Ld' (111)"
           expected_port)
    else Ok ()
  in
  match client with
  | Error msg -> [ Sut.failed "db-connect" msg ]
  | Ok () ->
    let engine = Minisql.Engine.create () in
    let script =
      "CREATE DATABASE conferr_test; USE conferr_test; CREATE TABLE probe (id INT, \
       note TEXT); INSERT INTO probe VALUES (1, 'alpha'); INSERT INTO probe VALUES \
       (2, 'beta'); SELECT note FROM probe WHERE id = 2;"
    in
    (match Minisql.Engine.run_script engine script with
     | Error msg -> [ Sut.passed "db-connect"; Sut.failed "db-crud" msg ]
     | Ok _ -> [ Sut.passed "db-connect"; Sut.passed "db-crud" ])

(* my_load_defaults refuses options that precede any [group] header:
   [orphans sections] returns them in file order, each with its site and
   the message, from (group, (site, option name) list) pairs. *)
let orphans sections =
  List.concat_map (fun (group, options) -> if group = "" then options else []) sections
  |> List.map (fun (site, name) ->
         (site, Printf.sprintf "Found option without preceding group in config file: %s" name))

let boot configs =
  match List.assoc_opt "my.cnf" configs with
  | None -> Error "my.cnf not found"
  | Some text ->
    let sections = sections_of_text text in
    let state = { port = 3306L } in
    (match
       orphans (List.map (fun (s, ds) -> (s, List.map (fun (n, _) -> ((), n)) ds)) sections)
     with
     | ((), msg) :: _ -> Error ("[ERROR] " ^ msg)
     | [] ->
       let daemon_directives = section_directives sections "mysqld" in
       let rec apply = function
         | [] -> Ok ()
         | d :: rest ->
           (match apply_mysqld_directive state d with
            | Ok () -> apply rest
            | Error msg -> Error msg)
       in
       (match apply daemon_directives with
        | Error msg -> Error (Printf.sprintf "[ERROR] mysqld: %s" msg)
        | Ok () ->
          Ok { Sut.run_tests = functional_tests state; shutdown = (fun () -> ()) }))

(* The auxiliary tool the paper's latent-error story is about: mysqldump
   parses its own section of the shared file only when it runs — often
   from an unattended cron job, long after the error was introduced. *)
let mysqldump_options = [ "quick"; "max_allowed_packet"; "single_transaction"; "opt" ]

type tool_problem = Unknown_option of string | Bad_value of string

let check_mysqldump_option name value =
  let folded = fold_dashes name in
  if not (List.mem folded mysqldump_options) then
    Some (Unknown_option (Printf.sprintf "mysqldump: unknown option '--%s'" name))
  else if folded = "max_allowed_packet" then
    match
      read_size
        { min = kb; max = gb; default = Int64.mul 16L mb }
        (Option.value ~default:"" value)
    with
    | Refused msg -> Some (Bad_value (Printf.sprintf "mysqldump: %s" msg))
    | _ -> None
  else None

let run_mysqldump text =
  let rec check = function
    | [] -> Ok ()
    | (name, value) :: rest -> (
      match check_mysqldump_option name value with
      | Some (Unknown_option msg | Bad_value msg) -> Error msg
      | None -> check rest)
  in
  check (section_directives (sections_of_text text) "mysqldump")

let default_config =
  String.concat "\n"
    [
      "# Example MySQL config file.";
      "[mysqld]";
      "port = 3306";
      "socket = /var/run/mysqld/mysqld.sock";
      "datadir = /var/lib/mysql";
      "skip_external_locking";
      "key_buffer_size = 16M";
      "max_allowed_packet = 1M";
      "table_open_cache = 64";
      "sort_buffer_size = 512K";
      "net_buffer_length = 8K";
      "read_buffer_size = 256K";
      "read_rnd_buffer_size = 512K";
      "myisam_sort_buffer_size = 8M";
      "thread_cache_size = 8";
      "max_connections = 100";
      "";
    ]

(* A my.cnf shared with the auxiliary tools, as shipped installs use.
   Errors in the tool sections are not detected when the daemon starts
   (the latent-error design flaw of §5.2); exercised by tests and the
   quickstart example. *)
let shared_tools_config =
  default_config
  ^ String.concat "\n"
      [
        "[mysqldump]";
        "quick";
        "max_allowed_packet = 16M";
        "";
        "[mysqld_safe]";
        "log-error = /var/log/mysqld.log";
        "";
      ]

let full_config =
  (* Most available [mysqld] variables at their defaults: the starting
     file for the §5.5 comparison benchmark (flags and booleans excluded,
     as in the paper). *)
  let directive (name, spec) =
    let size_text n =
      if Int64.rem n gb = 0L && n <> 0L then Printf.sprintf "%LdG" (Int64.div n gb)
      else if Int64.rem n mb = 0L && n <> 0L then Printf.sprintf "%LdM" (Int64.div n mb)
      else if Int64.rem n kb = 0L && n <> 0L then Printf.sprintf "%LdK" (Int64.div n kb)
      else Int64.to_string n
    in
    match spec with
    | Size { default; _ } -> Some (Printf.sprintf "%s = %s" name (size_text default))
    | Int { default; _ } -> Some (Printf.sprintf "%s = %Ld" name default)
    | Path_existing d | Path_any d -> Some (Printf.sprintf "%s = %s" name d)
    | Flag | Bool _ -> None
  in
  "[mysqld]\n" ^ String.concat "\n" (List.filter_map directive mysqld_specs) ^ "\n"

let sut =
  {
    Sut.sut_name = "mysql";
    version = "MySQL 5.1.22 (simulated)";
    config_files = [ ("my.cnf", Formats.Registry.ini) ];
    default_config = [ ("my.cnf", default_config) ];
    boot;
  }
