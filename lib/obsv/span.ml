type phase = Generate | Serialize | Spawn | Run | Classify

let all = [ Generate; Serialize; Spawn; Run; Classify ]

let label = function
  | Generate -> "generate"
  | Serialize -> "serialize"
  | Spawn -> "spawn"
  | Run -> "run"
  | Classify -> "classify"

(* FNV-1a, 64-bit: the same deterministic, scheduling-independent hash
   family the executor uses for per-scenario seeds. *)
let id s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Printf.sprintf "%016Lx" !h

type probe = { wrap : 'a. phase -> (unit -> 'a) -> 'a }

let null = { wrap = (fun _ f -> f ()) }
