type rdata =
  | A of string
  | Ns of string
  | Cname of string
  | Soa of soa
  | Ptr of string
  | Mx of int * string
  | Txt of string
  | Rp of string * string
  | Hinfo of string * string

and soa = {
  mname : string;
  rname : string;
  serial : int;
  refresh : int;
  retry : int;
  expire : int;
  minimum : int;
}

type t = { owner : string; ttl : int; rdata : rdata; tags : (string * string) list }

let make ?(ttl = 86400) ?(tags = []) owner rdata =
  { owner = Name.normalize owner; ttl; rdata; tags }

let rtype t =
  match t.rdata with
  | A _ -> "A"
  | Ns _ -> "NS"
  | Cname _ -> "CNAME"
  | Soa _ -> "SOA"
  | Ptr _ -> "PTR"
  | Mx _ -> "MX"
  | Txt _ -> "TXT"
  | Rp _ -> "RP"
  | Hinfo _ -> "HINFO"

let tag t key = List.assoc_opt key t.tags

let equal a b = a.owner = b.owner && a.ttl = b.ttl && a.rdata = b.rdata

let target t =
  match t.rdata with
  | Ns n | Cname n | Ptr n | Mx (_, n) -> Some n
  | A _ | Soa _ | Txt _ | Rp _ | Hinfo _ -> None

let pp_rdata fmt = function
  | A ip -> Format.pp_print_string fmt ip
  | Ns n | Cname n | Ptr n -> Format.pp_print_string fmt n
  | Mx (pref, x) -> Format.fprintf fmt "%d %s" pref x
  | Txt s -> Format.fprintf fmt "%S" s
  | Rp (mbox, txt) -> Format.fprintf fmt "%s %s" mbox txt
  | Hinfo (cpu, os) -> Format.fprintf fmt "%S %S" cpu os
  | Soa s ->
    Format.fprintf fmt "%s %s %d %d %d %d %d" s.mname s.rname s.serial s.refresh
      s.retry s.expire s.minimum

let pp fmt t =
  Format.fprintf fmt "%s %d %s %a" t.owner t.ttl (rtype t) pp_rdata t.rdata

let to_string t = Format.asprintf "%a" pp t
