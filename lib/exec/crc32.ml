(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
   checksum gzip and PNG use, table-driven.  Checksums are native ints
   holding the 32-bit value, so hashing a line allocates nothing. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let sub_update crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update crc s = sub_update crc s 0 (String.length s)
let string s = update 0 s
let sub s off len = sub_update 0 s off len

let hex_digits = "0123456789abcdef"

let to_hex crc =
  String.init 8 (fun i -> hex_digits.[(crc lsr (28 - (4 * i))) land 0xF])

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= 0xFFFFFFFF -> Some v
    | _ -> None
