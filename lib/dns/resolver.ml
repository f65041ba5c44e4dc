type t = { zones : Zone.t list }

let create zones = { zones }

type response =
  | Answer of Record.t list
  | No_data
  | Nx_domain
  | Not_authoritative
  | Cname_loop

let zone_for t name =
  (* Longest-origin match among served zones. *)
  t.zones
  |> List.filter (fun (z : Zone.t) -> Name.in_domain ~domain:z.origin name)
  |> List.sort (fun (a : Zone.t) (b : Zone.t) ->
         Int.compare (String.length b.origin) (String.length a.origin))
  |> function
  | [] -> None
  | z :: _ -> Some z

let query t ~name ~rtype =
  let rtype = String.uppercase_ascii rtype in
  let rec resolve chain name hops =
    if hops > 8 then Cname_loop
    else
      match zone_for t name with
      | None -> if chain = [] then Not_authoritative else Answer (List.rev chain)
      | Some zone ->
        let at_name = Zone.find zone ~owner:name in
        if at_name = [] then if chain = [] then Nx_domain else Answer (List.rev chain)
        else begin
          let wanted = List.filter (fun r -> Record.rtype r = rtype) at_name in
          if wanted <> [] then Answer (List.rev_append chain wanted)
          else
            match
              List.find_opt (fun r -> Record.rtype r = "CNAME") at_name
            with
            | Some ({ Record.rdata = Record.Cname target; _ } as cname)
              when rtype <> "CNAME" ->
              resolve (cname :: chain) (Name.normalize target) (hops + 1)
            | Some _ | None ->
              if chain = [] then No_data else Answer (List.rev chain)
        end
  in
  resolve [] (Name.normalize name) 0
