module Engine = Minisql.Engine
module Parser = Minisql.Sql_parser
module Value = Minisql.Value
module Ast = Minisql.Ast

let fresh () =
  let e = Engine.create () in
  (match Engine.run e "CREATE DATABASE test" with
   | Engine.Done -> ()
   | _ -> Alcotest.fail "create database failed");
  e

let expect_done e sql =
  match Engine.run e sql with
  | Engine.Done -> ()
  | Engine.Rows _ -> Alcotest.failf "%s: unexpected rows" sql
  | Engine.Sql_error msg -> Alcotest.failf "%s: %s" sql msg

let expect_error e sql =
  match Engine.run e sql with
  | Engine.Sql_error _ -> ()
  | _ -> Alcotest.failf "%s should fail" sql

let expect_rows e sql =
  match Engine.run e sql with
  | Engine.Rows rs -> rs
  | Engine.Done -> Alcotest.failf "%s: no rows" sql
  | Engine.Sql_error msg -> Alcotest.failf "%s: %s" sql msg

(* --- parser --- *)

let test_parse_select () =
  match Parser.parse "SELECT a, b FROM t WHERE a = 1;" with
  | Ok (Ast.Select { columns = Some [ "a"; "b" ]; table = "t"; where = Some w }) ->
    Alcotest.(check string) "where column" "a" w.Ast.column;
    Alcotest.(check bool) "where value" true (w.Ast.value = Value.Int 1)
  | Ok _ -> Alcotest.fail "wrong statement"
  | Error msg -> Alcotest.fail msg

let test_parse_star () =
  match Parser.parse "select * from t" with
  | Ok (Ast.Select { columns = None; table = "t"; where = None }) -> ()
  | _ -> Alcotest.fail "case-insensitive select star"

let test_parse_string_literal () =
  match Parser.parse "INSERT INTO t VALUES ('it''s', 2)" with
  | Ok (Ast.Insert { values = [ Value.Text "it's"; Value.Int 2 ]; _ }) -> ()
  | _ -> Alcotest.fail "escaped quote"

let test_parse_negative_number () =
  match Parser.parse "INSERT INTO t VALUES (-5)" with
  | Ok (Ast.Insert { values = [ Value.Int (-5) ]; _ }) -> ()
  | _ -> Alcotest.fail "negative literal"

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Parser.parse sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" sql)
    [
      "SELECT"; "CREATE TABLE t"; "INSERT t VALUES (1)"; "SELECT * FROM"; "FROB x";
      "SELECT * FROM t extra"; "INSERT INTO t VALUES ('unterminated)";
    ]

let test_parse_script () =
  match Parser.parse_script "CREATE DATABASE a; USE a; SELECT * FROM t" with
  | Ok stmts -> Alcotest.(check int) "three" 3 (List.length stmts)
  | Error msg -> Alcotest.fail msg

(* --- engine --- *)

let test_create_insert_select () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT, name TEXT)";
  expect_done e "INSERT INTO t VALUES (1, 'a')";
  expect_done e "INSERT INTO t VALUES (2, 'b')";
  let rs = expect_rows e "SELECT name FROM t WHERE id = 2" in
  Alcotest.(check (list string)) "columns" [ "name" ] rs.Engine.columns;
  Alcotest.(check bool) "row" true (rs.Engine.rows = [ [ Value.Text "b" ] ])

let test_select_star_order () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT, name TEXT)";
  expect_done e "INSERT INTO t VALUES (1, 'a')";
  let rs = expect_rows e "SELECT * FROM t" in
  Alcotest.(check (list string)) "all columns" [ "id"; "name" ] rs.Engine.columns

let test_type_checking () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT)";
  expect_error e "INSERT INTO t VALUES ('oops')";
  expect_error e "INSERT INTO t VALUES (1, 2)"

let test_null_semantics () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT, name TEXT)";
  expect_done e "INSERT INTO t VALUES (NULL, 'x')";
  let rs = expect_rows e "SELECT name FROM t WHERE id = NULL" in
  Alcotest.(check int) "null matches nothing" 0 (List.length rs.Engine.rows)

let test_delete () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT)";
  expect_done e "INSERT INTO t VALUES (1)";
  expect_done e "INSERT INTO t VALUES (2)";
  expect_done e "DELETE FROM t WHERE id = 1";
  let rs = expect_rows e "SELECT * FROM t" in
  Alcotest.(check int) "one left" 1 (List.length rs.Engine.rows);
  expect_done e "DELETE FROM t";
  let rs = expect_rows e "SELECT * FROM t" in
  Alcotest.(check int) "empty" 0 (List.length rs.Engine.rows)

let test_drop () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT)";
  expect_done e "DROP TABLE t";
  expect_error e "SELECT * FROM t";
  expect_error e "DROP TABLE t"

let test_database_management () =
  let e = Engine.create () in
  expect_error e "CREATE TABLE t (id INT)" (* no database selected *);
  expect_done e "CREATE DATABASE d1";
  expect_done e "CREATE DATABASE d2";
  expect_error e "CREATE DATABASE d1";
  Alcotest.(check (list string)) "names" [ "d1"; "d2" ] (Engine.database_names e);
  expect_done e "USE d2";
  expect_done e "CREATE TABLE t (id INT)";
  expect_done e "USE d1";
  expect_error e "SELECT * FROM t" (* t lives in d2 *);
  expect_done e "DROP DATABASE d2";
  expect_error e "USE d2"

let test_duplicate_table () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT)";
  expect_error e "CREATE TABLE t (id INT)"

let test_unknown_column () =
  let e = fresh () in
  expect_done e "CREATE TABLE t (id INT)";
  expect_error e "SELECT nope FROM t";
  expect_done e "INSERT INTO t VALUES (1)";
  expect_error e "SELECT id FROM t WHERE nope = 1"

let test_run_script () =
  let e = Engine.create () in
  (match Engine.run_script e "CREATE DATABASE d; USE d; CREATE TABLE t (x INT); INSERT INTO t VALUES (9)" with
   | Ok n -> Alcotest.(check int) "four statements" 4 n
   | Error msg -> Alcotest.fail msg);
  match Engine.run_script e "INSERT INTO t VALUES (1); INSERT INTO nope VALUES (1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "script must stop at first error"

let suite =
  [
    Alcotest.test_case "parse select" `Quick test_parse_select;
    Alcotest.test_case "parse star" `Quick test_parse_star;
    Alcotest.test_case "parse string literal" `Quick test_parse_string_literal;
    Alcotest.test_case "parse negative" `Quick test_parse_negative_number;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse script" `Quick test_parse_script;
    Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
    Alcotest.test_case "select star order" `Quick test_select_star_order;
    Alcotest.test_case "type checking" `Quick test_type_checking;
    Alcotest.test_case "null semantics" `Quick test_null_semantics;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "drop" `Quick test_drop;
    Alcotest.test_case "database management" `Quick test_database_management;
    Alcotest.test_case "duplicate table" `Quick test_duplicate_table;
    Alcotest.test_case "unknown column" `Quick test_unknown_column;
    Alcotest.test_case "run script" `Quick test_run_script;
  ]
