(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
   checksum gzip and PNG use, table-driven. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let update crc s =
  let crc = ref (Int32.lognot crc) in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
      in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  Int32.lognot !crc

let string s = update 0l s

let to_hex crc = Printf.sprintf "%08lx" crc

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v when Int64.unsigned_compare v 0x1_0000_0000L < 0 ->
      Some (Int64.to_int32 v)
    | _ -> None
