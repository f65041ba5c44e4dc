module Strutil = Conferr_util.Strutil

type spec =
  | Pint of { min : int; max : int; default : int }
  | Pmem of { min_kb : int; max_kb : int; default_kb : int }
  | Ptime of { min_ms : int; max_ms : int; default_ms : int }
  | Pfloat of { fmin : float; fmax : float; fdefault : float }
  | Pbool of bool
  | Penum of string list * string
  | Pstring of (string -> bool) * string

let known_hosts = [ "localhost"; "127.0.0.1"; "0.0.0.0"; "*"; "::1" ]

let known_locales = [ "C"; "POSIX"; "en_US.UTF-8"; "en_US"; "de_CH.UTF-8" ]

let known_timezones = [ "UTC"; "GMT"; "Europe/Zurich"; "America/New_York"; "Etc/UTC" ]

let datestyle_tokens = [ "iso"; "sql"; "postgres"; "german"; "mdy"; "dmy"; "ymd" ]

let valid_datestyle v =
  String.split_on_char ',' v
  |> List.map (fun t -> String.lowercase_ascii (Strutil.trim t))
  |> List.for_all (fun t -> t <> "" && List.mem t datestyle_tokens)

(* The paper's default postgresql.conf has 8 directives; these are the
   first eight below.  The remainder participate only in the §5.5
   comparison configuration. *)
let specs =
  [
    ("max_connections", Pint { min = 1; max = 262143; default = 100 });
    ("shared_buffers", Pmem { min_kb = 128; max_kb = 1073741823; default_kb = 24 * 1024 });
    ("max_fsm_pages", Pint { min = 1000; max = max_int; default = 153600 });
    ("max_fsm_relations", Pint { min = 100; max = max_int; default = 1000 });
    ("datestyle", Penum ([], "iso, mdy"));
    ("lc_messages", Pstring ((fun v -> List.mem v known_locales), "en_US.UTF-8"));
    ("log_timezone", Pstring ((fun v -> List.mem v known_timezones), "UTC"));
    ("listen_addresses", Pstring ((fun v -> List.mem v known_hosts), "localhost"));
    (* --- extended set for the comparison benchmark --- *)
    ("port", Pint { min = 1; max = 65535; default = 5432 });
    ("work_mem", Pmem { min_kb = 64; max_kb = 2097151; default_kb = 1024 });
    ("maintenance_work_mem", Pmem { min_kb = 1024; max_kb = 2097151; default_kb = 16384 });
    ("temp_buffers", Pmem { min_kb = 100; max_kb = 1073741823; default_kb = 8 * 1024 });
    ("wal_buffers", Pmem { min_kb = 32; max_kb = 1048576; default_kb = 64 });
    ("checkpoint_segments", Pint { min = 1; max = 1000; default = 3 });
    ("checkpoint_timeout", Ptime { min_ms = 30_000; max_ms = 3600_000; default_ms = 300_000 });
    ("deadlock_timeout", Ptime { min_ms = 1; max_ms = 2147483; default_ms = 1000 });
    ("statement_timeout", Ptime { min_ms = 0; max_ms = max_int; default_ms = 0 });
    ("vacuum_cost_delay", Ptime { min_ms = 0; max_ms = 1000; default_ms = 0 });
    ("bgwriter_delay", Ptime { min_ms = 10; max_ms = 10000; default_ms = 200 });
    ("effective_cache_size", Pmem { min_kb = 8; max_kb = 1073741823; default_kb = 128 * 1024 });
    ("random_page_cost", Pfloat { fmin = 0.0; fmax = 1.0e10; fdefault = 4.0 });
    ("cpu_tuple_cost", Pfloat { fmin = 0.0; fmax = 1.0e10; fdefault = 0.01 });
    ("cpu_index_tuple_cost", Pfloat { fmin = 0.0; fmax = 1.0e10; fdefault = 0.005 });
    ("seq_page_cost", Pfloat { fmin = 0.0; fmax = 1.0e10; fdefault = 1.0 });
    ("geqo_threshold", Pint { min = 2; max = 2147483647; default = 12 });
    ("default_statistics_target", Pint { min = 1; max = 1000; default = 10 });
    ("log_rotation_size", Pmem { min_kb = 0; max_kb = 2097151; default_kb = 10240 });
    ("log_min_duration_statement", Ptime { min_ms = -1; max_ms = max_int; default_ms = -1 });
    ("max_prepared_transactions", Pint { min = 0; max = 262143; default = 5 });
    ("max_locks_per_transaction", Pint { min = 10; max = 10000; default = 64 });
    ("fsync", Pbool true);
    ("autovacuum", Pbool false);
    ("enable_seqscan", Pbool true);
    ("log_connections", Pbool false);
  ]

let is_digit c = c >= '0' && c <= '9'

let split_number_unit v =
  let len = String.length v in
  let start = if len > 0 && (v.[0] = '-' || v.[0] = '+') then 1 else 0 in
  let rec digits i = if i < len && is_digit v.[i] then digits (i + 1) else i in
  let stop = digits start in
  if stop = start then None
  else Some (String.sub v 0 stop, Strutil.trim (String.sub v stop (len - stop)))

let requires_numeric name =
  Error (Printf.sprintf "parameter \"%s\" requires a numeric value" name)

let parse_mem name v =
  match split_number_unit v with
  | None -> requires_numeric name
  | Some (digits, unit_text) -> (
    match int_of_string_opt digits with
    | None -> requires_numeric name
    | Some n -> (
      (* 8.2 accepts only exactly-spelled units; "24mb" is invalid. *)
      match unit_text with
      | "" -> Ok (n * 8) (* bare numbers are 8kB pages, as in 8.2 *)
      | "kB" -> Ok n
      | "MB" -> Ok (n * 1024)
      | "GB" -> Ok (n * 1024 * 1024)
      | _ ->
        Error
          (Printf.sprintf
             "invalid value for parameter \"%s\": \"%s\" (valid units are kB, MB, GB)"
             name v)))

let parse_time name v =
  match split_number_unit v with
  | None -> requires_numeric name
  | Some (digits, unit_text) -> (
    match int_of_string_opt digits with
    | None -> requires_numeric name
    | Some n -> (
      match unit_text with
      | "" | "ms" -> Ok n
      | "s" -> Ok (n * 1000)
      | "min" -> Ok (n * 60_000)
      | "h" -> Ok (n * 3600_000)
      | "d" -> Ok (n * 86_400_000)
      | _ ->
        Error
          (Printf.sprintf
             "invalid value for parameter \"%s\": \"%s\" (valid units are ms, s, \
              min, h, d)"
             name v)))

let parse_strict_int name v =
  let digits =
    if String.length v > 1 && v.[0] = '-' then String.sub v 1 (String.length v - 1) else v
  in
  match
    if digits <> "" && String.for_all is_digit digits then int_of_string_opt v else None
  with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "parameter \"%s\" requires an integer value" name)

type number = {
  unit_label : string;
  parse : string -> string -> (int, string) result;
  lo : int;
  hi : int;
  default : int;
}

let number = function
  | Pint { min; max; default } ->
    Some { unit_label = "count"; parse = parse_strict_int; lo = min; hi = max; default }
  | Pmem { min_kb; max_kb; default_kb } ->
    Some
      { unit_label = "kb"; parse = parse_mem; lo = min_kb; hi = max_kb; default = default_kb }
  | Ptime { min_ms; max_ms; default_ms } ->
    Some
      { unit_label = "ms"; parse = parse_time; lo = min_ms; hi = max_ms; default = default_ms }
  | Pfloat _ | Pbool _ | Penum _ | Pstring _ -> None

(* The server's check of one value: the number it stores for a numeric
   parameter, or the message startup aborts with. *)
let check_value name spec v =
  let invalid () =
    Error (Printf.sprintf "invalid value for parameter \"%s\": \"%s\"" name v)
  in
  match spec with
  | Pint _ | Pmem _ | Ptime _ -> (
    let { parse; lo; hi; _ } = Option.get (number spec) in
    match parse name v with
    | Error _ as e -> e
    | Ok n when n < lo || n > hi ->
      Error
        (Printf.sprintf "%d is outside the valid range for parameter \"%s\" (%d .. %d)"
           n name lo hi)
    | Ok n -> Ok (Some n))
  | Pfloat { fmin; fmax; _ } -> (
    match float_of_string_opt v with
    | None -> requires_numeric name
    | Some f when f < fmin || f > fmax ->
      Error (Printf.sprintf "%g is outside the valid range for parameter \"%s\"" f name)
    | Some _ -> Ok None)
  | Pbool _ -> (
    match String.lowercase_ascii v with
    | "on" | "off" | "true" | "false" | "yes" | "no" | "1" | "0" -> Ok None
    | _ -> Error (Printf.sprintf "parameter \"%s\" requires a Boolean value" name))
  | Penum _ when name = "datestyle" -> if valid_datestyle v then Ok None else invalid ()
  | Penum (allowed, _) ->
    if List.mem (String.lowercase_ascii v) allowed then Ok None else invalid ()
  | Pstring (validate, _) -> if validate v then Ok None else invalid ()

let apply_directive values (name, value) =
  let lname = String.lowercase_ascii name in
  match List.assoc_opt lname specs with
  | None -> Error (Printf.sprintf "unrecognized configuration parameter \"%s\"" name)
  | Some spec -> (
    match check_value lname spec (Option.value ~default:"" value) with
    | Error _ as e -> e
    | Ok (Some n) ->
      Hashtbl.replace values lname n;
      Ok ()
    | Ok None -> Ok ())

type relation = {
  tag : string;
  lhs : string;
  coeff : int;
  rhs : string;
  fatal : int -> int -> string;
}

(* The cross-parameter constraints, each [lhs >= coeff * rhs] over the
   values the server runs with, checked after the whole file is read
   (the paper highlights the max_fsm_pages one). *)
let relations =
  [
    {
      tag = "FSM";
      lhs = "max_fsm_pages";
      coeff = 16;
      rhs = "max_fsm_relations";
      fatal =
        Printf.sprintf
          "FATAL: max_fsm_pages must be at least 16 * max_fsm_relations (%d < 16 * %d)";
    };
    (* shared memory must hold roughly 16kB of bookkeeping per
       connection: another inter-parameter relation of 8.2's bootstrap *)
    {
      tag = "SHMEM";
      lhs = "shared_buffers";
      coeff = 16;
      rhs = "max_connections";
      fatal =
        (fun shared_kb conns ->
          Printf.sprintf
            "FATAL: insufficient shared memory for max_connections = %d \
             (shared_buffers = %dkB)"
            conns shared_kb);
    };
  ]

let check_constraints values =
  let get name =
    match Hashtbl.find_opt values name with
    | Some n -> n
    | None -> (Option.get (number (List.assoc name specs))).default
  in
  match List.find_opt (fun r -> get r.lhs < r.coeff * get r.rhs) relations with
  | Some r -> Error (r.fatal (get r.lhs) (get r.rhs))
  | None -> Ok ()

let parse_line raw =
  let trimmed = Strutil.trim raw in
  if trimmed = "" || trimmed.[0] = '#' then None
  else begin
    (* strip an inline comment outside quotes *)
    let without_comment =
      let n = String.length trimmed in
      let rec scan i in_quote =
        if i >= n then trimmed
        else
          match trimmed.[i] with
          | '\'' -> scan (i + 1) (not in_quote)
          | '#' when not in_quote -> Strutil.trim (String.sub trimmed 0 i)
          | _ -> scan (i + 1) in_quote
      in
      scan 0 false
    in
    let name, value =
      match Strutil.split_on_first '=' without_comment with
      | Some (n, v) -> (Strutil.trim n, Some (Strutil.trim v))
      | None ->
        (match Strutil.split_on_first ' ' without_comment with
         | Some (n, v) -> (Strutil.trim n, Some (Strutil.trim v))
         | None -> (without_comment, None))
    in
    let unquote v =
      if String.length v >= 2 && v.[0] = '\'' && v.[String.length v - 1] = '\'' then
        String.sub v 1 (String.length v - 2)
      else v
    in
    Some (name, Option.map unquote value)
  end

(* A section header is not valid postgresql.conf syntax at all. *)
let syntax_error name =
  if String.length name > 0 && name.[0] = '[' then
    Some (Printf.sprintf "syntax error in configuration near \"%s\"" name)
  else None

let validate_text text =
  let values = Hashtbl.create 16 in
  let directives = List.filter_map parse_line (Strutil.lines text) in
  let rec apply = function
    | [] -> check_constraints values
    | ((name, _) as d) :: rest ->
      (match syntax_error name with
       | Some msg -> Error msg
       | None ->
         (match apply_directive values d with
          | Ok () -> apply rest
          | Error msg -> Error msg))
  in
  apply directives

let functional_tests () =
  let engine = Minisql.Engine.create () in
  let script =
    "CREATE DATABASE conferr_test; USE conferr_test; CREATE TABLE probe (id INT, note \
     TEXT); INSERT INTO probe VALUES (1, 'alpha'); INSERT INTO probe VALUES (2, \
     'beta'); SELECT note FROM probe WHERE id = 2;"
  in
  match Minisql.Engine.run_script engine script with
  | Error msg -> [ Sut.passed "db-connect"; Sut.failed "db-crud" msg ]
  | Ok _ -> [ Sut.passed "db-connect"; Sut.passed "db-crud" ]

let boot configs =
  match List.assoc_opt "postgresql.conf" configs with
  | None -> Error "postgresql.conf not found"
  | Some text ->
    (match validate_text text with
     | Error msg -> Error (Printf.sprintf "FATAL: %s" msg)
     | Ok () ->
       Ok { Sut.run_tests = functional_tests; shutdown = (fun () -> ()) })

let default_config =
  String.concat "\n"
    [
      "# PostgreSQL configuration file";
      "max_connections = 100";
      "shared_buffers = 24MB";
      "max_fsm_pages = 153600";
      "max_fsm_relations = 1000";
      "datestyle = 'iso, mdy'";
      "lc_messages = 'en_US.UTF-8'";
      "log_timezone = 'UTC'";
      "listen_addresses = 'localhost'";
      "";
    ]

let full_config =
  let directive (name, spec) =
    match spec with
    | Pint { default; _ } -> Some (Printf.sprintf "%s = %d" name default)
    | Pmem { default_kb; _ } ->
      Some
        (if default_kb mod 1024 = 0 then
           Printf.sprintf "%s = %dMB" name (default_kb / 1024)
         else Printf.sprintf "%s = %dkB" name default_kb)
    | Ptime { default_ms; _ } ->
      Some
        (if default_ms mod 60_000 = 0 && default_ms > 0 then
           Printf.sprintf "%s = %dmin" name (default_ms / 60_000)
         else if default_ms mod 1000 = 0 && default_ms > 0 then
           Printf.sprintf "%s = %ds" name (default_ms / 1000)
         else Printf.sprintf "%s = %dms" name default_ms)
    | Pfloat { fdefault; _ } -> Some (Printf.sprintf "%s = %g" name fdefault)
    | Penum (_, default) -> Some (Printf.sprintf "%s = '%s'" name default)
    | Pstring (_, default) -> Some (Printf.sprintf "%s = '%s'" name default)
    | Pbool _ -> None (* the paper excludes booleans from the benchmark *)
  in
  String.concat "\n" (List.filter_map directive specs) ^ "\n"

let sut =
  {
    Sut.sut_name = "postgres";
    version = "PostgreSQL 8.2.5 (simulated)";
    config_files = [ ("postgresql.conf", Formats.Registry.pgconf) ];
    default_config = [ ("postgresql.conf", default_config) ];
    boot;
  }
