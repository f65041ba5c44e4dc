type key = { file : string; section : string; name : string }

type obs = { row : Evidence.row; edit : Edit.t }

type t = { key : key; display : string; node_kind : string; obs : obs list }

let usable_outcome = function
  | "startup" | "functional" | "ignored" -> true
  | _ -> false

let build rows =
  let tbl : (key, t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (row : Evidence.row) ->
      if usable_outcome row.outcome then
        List.iter
          (fun (ed : Edit.t) ->
            if ed.name <> "" then begin
              let key =
                {
                  file = ed.file;
                  section = ed.section;
                  name = String.lowercase_ascii ed.name;
                }
              in
              match Hashtbl.find_opt tbl key with
              | Some t ->
                Hashtbl.replace tbl key { t with obs = { row; edit = ed } :: t.obs }
              | None ->
                order := key :: !order;
                Hashtbl.add tbl key
                  {
                    key;
                    display = ed.name;
                    node_kind = ed.node_kind;
                    obs = [ { row; edit = ed } ];
                  }
            end)
          row.edits)
    rows;
  List.rev_map
    (fun key ->
      let t = Hashtbl.find tbl key in
      { t with obs = List.rev t.obs })
    !order
