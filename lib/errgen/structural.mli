(** Structural-error generator (paper §2.2 and §4.2).

    Skill-based slips: omission of directives or sections, duplication of
    directives (copy-paste), misplacement of directives into other
    sections.  Rule-based mistakes: "borrowing" a directive from another
    program's similar-looking configuration. *)

val omit_directives :
  ?query:string -> file:string -> Conftree.Config_set.t -> Scenario.t list
(** One scenario per directive: remove it.  [query] defaults to every
    directive in the file. *)

val omit_sections :
  ?query:string -> file:string -> Conftree.Config_set.t -> Scenario.t list

val duplicate_directives :
  ?query:string -> file:string -> Conftree.Config_set.t -> Scenario.t list

val misplace_directives : file:string -> Conftree.Config_set.t -> Scenario.t list
(** Move each directive into each other section of the same file. *)

val borrow_foreign_directive :
  donor_name:string -> directive:Conftree.Node.t -> file:string ->
  Conftree.Config_set.t -> Scenario.t list
(** Insert a directive taken from [donor_name]'s configuration format
    into each section of the file. *)
