(* The host speed reference the benchmark starts around each request
   (speed.ml): a fresh OCaml process that grows a table of 8000 entries
   and walks it, as a conferr run grows and walks its configuration
   trees.  It shares no code with conferr, so no change to conferr can
   move its time. *)

let () =
  let h = Hashtbl.create 16 in
  for i = 1 to 8_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) (Array.make 4 i)
  done;
  let s = ref 0 in
  Hashtbl.iter (fun _ v -> s := !s + v.(0)) h;
  ignore (Sys.opaque_identity !s)
