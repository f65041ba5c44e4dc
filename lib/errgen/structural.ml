let directives_query = "//*[kind()='directive']"

let sections_query = "//*[kind()='section']"

let omit_directives ?(query = directives_query) ~file set =
  Template.delete ~class_name:"structural/omit-directive"
    (Template.target ~file query) set

let omit_sections ?(query = sections_query) ~file set =
  Template.delete ~class_name:"structural/omit-section"
    (Template.target ~file query) set

let duplicate_directives ?(query = directives_query) ~file set =
  Template.duplicate ~class_name:"structural/duplicate-directive"
    (Template.target ~file query) set

let misplace_directives ~file set =
  Template.move ~class_name:"structural/misplace-directive"
    ~src:(Template.target ~file directives_query)
    ~dst:(Template.target ~file sections_query)
    set

let borrow_foreign_directive ~donor_name ~directive ~file set =
  Template.insert_foreign ~class_name:"structural/borrow-foreign"
    ~node:directive
    ~description:
      (Printf.sprintf "borrow %s directive %S" donor_name directive.Conftree.Node.name)
    ~dst:(Template.target ~file sections_query)
    set
