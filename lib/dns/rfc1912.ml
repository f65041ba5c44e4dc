module Scenario = Errgen.Scenario

type fault =
  | Missing_ptr
  | Ptr_to_cname
  | Cname_collision_with_ns
  | Mx_to_cname
  | Cname_chain
  | Missing_forward_a

let all_faults =
  [ Missing_ptr; Ptr_to_cname; Cname_collision_with_ns; Mx_to_cname; Cname_chain;
    Missing_forward_a ]

let paper_faults = [ Missing_ptr; Ptr_to_cname; Cname_collision_with_ns; Mx_to_cname ]

let fault_name = function
  | Missing_ptr -> "missing-ptr"
  | Ptr_to_cname -> "ptr-to-cname"
  | Cname_collision_with_ns -> "cname-collision-ns"
  | Mx_to_cname -> "mx-to-cname"
  | Cname_chain -> "cname-chain"
  | Missing_forward_a -> "missing-forward-a"

let fault_description = function
  | Missing_ptr -> "Missing PTR"
  | Ptr_to_cname -> "PTR pointing to CNAME"
  | Cname_collision_with_ns -> "dupl name for NS and CNAME"
  | Mx_to_cname -> "MX pointing to CNAME"
  | Cname_chain -> "CNAME pointing to CNAME"
  | Missing_forward_a -> "PTR without forward A"

let aliases records =
  List.filter (fun r -> Record.rtype r = "CNAME") records

let remove_record records victim =
  List.filter (fun r -> not (Record.equal r victim)) records

let replace_record records ~old_record fresh =
  List.map (fun r -> if Record.equal r old_record then fresh else r) records

let ptrs records = List.filter (fun r -> Record.rtype r = "PTR") records

let has_a records name =
  List.exists
    (fun (r : Record.t) -> Record.rtype r = "A" && r.owner = Name.normalize name)
    records

let instantiate fault records =
  match fault with
  | Missing_ptr ->
    (* Remove a PTR whose target does have an A record: the forward
       mapping survives, the reverse one disappears. *)
    ptrs records
    |> List.filter (fun r ->
           match r.Record.rdata with
           | Record.Ptr target -> has_a records target
           | _ -> false)
    |> List.map (fun r ->
           ( remove_record records r,
             Printf.sprintf "remove PTR %s -> %s" r.Record.owner
               (Option.value ~default:"?" (Record.target r)) ))
  | Ptr_to_cname ->
    let alias_names = List.map (fun (r : Record.t) -> r.owner) (aliases records) in
    ptrs records
    |> List.concat_map (fun (r : Record.t) ->
           alias_names
           |> List.filter (fun alias -> Some alias <> Record.target r)
           |> List.map (fun alias ->
                  ( replace_record records ~old_record:r
                      { r with Record.rdata = Record.Ptr alias },
                    Printf.sprintf "point PTR %s at alias %s" r.owner alias )))
  | Cname_collision_with_ns ->
    (* Add a CNAME at a name that already owns NS records. *)
    let ns_owners =
      List.filter (fun r -> Record.rtype r = "NS") records
      |> List.map (fun (r : Record.t) -> r.owner)
      |> List.sort_uniq compare
    in
    let a_owners =
      List.filter (fun r -> Record.rtype r = "A") records
      |> List.map (fun (r : Record.t) -> r.owner)
      |> List.sort_uniq compare
    in
    ns_owners
    |> List.concat_map (fun owner ->
           (* The new record must live in the same configuration file as
              the records already at that owner, so encoders place it. *)
           let tags =
             match
               List.find_opt (fun (r : Record.t) -> r.owner = owner) records
             with
             | Some r -> List.filter (fun (k, _) -> k = Codec.tag_file) r.tags
             | None -> []
           in
           a_owners
           |> List.filter (fun t -> t <> owner)
           |> List.map (fun target ->
                  ( records @ [ Record.make ~tags owner (Record.Cname target) ],
                    Printf.sprintf "add CNAME at NS owner %s -> %s" owner target )))
  | Mx_to_cname ->
    let alias_names = List.map (fun (r : Record.t) -> r.owner) (aliases records) in
    records
    |> List.filter (fun r -> Record.rtype r = "MX")
    |> List.concat_map (fun (r : Record.t) ->
           let pref = match r.rdata with Record.Mx (p, _) -> p | _ -> 0 in
           alias_names
           |> List.map (fun alias ->
                  ( replace_record records ~old_record:r
                      { r with Record.rdata = Record.Mx (pref, alias) },
                    Printf.sprintf "point MX for %s at alias %s" r.owner alias )))
  | Cname_chain ->
    let al = aliases records in
    al
    |> List.concat_map (fun (r : Record.t) ->
           al
           |> List.filter (fun (other : Record.t) ->
                  other.owner <> r.owner && Some other.owner <> Record.target r)
           |> List.map (fun (other : Record.t) ->
                  ( replace_record records ~old_record:r
                      { r with Record.rdata = Record.Cname other.owner },
                    Printf.sprintf "chain CNAME %s -> CNAME %s" r.owner other.owner )))
  | Missing_forward_a ->
    (* Remove an A record that a PTR points at: the reverse mapping
       survives, the forward one disappears. *)
    let ptr_targets =
      ptrs records |> List.filter_map Record.target |> List.sort_uniq compare
    in
    records
    |> List.filter (fun (r : Record.t) ->
           Record.rtype r = "A" && List.mem r.owner ptr_targets)
    |> List.map (fun r ->
           ( remove_record records r,
             Printf.sprintf "remove A record of %s" r.Record.owner ))

let scenarios ~codec ~faults set =
  match codec.Codec.decode set with
  | Error _ -> []
  | Ok records ->
    faults
    |> List.concat_map (fun fault ->
           instantiate fault records
           |> List.map (fun (mutated, what) ->
                  Scenario.make ~id:""
                    ~class_name:(Printf.sprintf "semantic/%s" (fault_name fault))
                    ~description:
                      (Printf.sprintf "%s: %s" (fault_description fault) what)
                    (fun set ->
                      match codec.Codec.decode set with
                      | Error e -> Error e
                      | Ok _ -> codec.Codec.encode mutated set)))
