(** Journal → dashboard adapter.

    {!Conferr_obsv.Report} deliberately sits at the bottom of the
    dependency stack and takes plain string/float rows; this module owns
    the one mapping from {!Journal.entry} (outcome variants, signature
    clustering) into those rows, shared by the CLI ([conferr report],
    [conferr gaps]) and the live daemon dashboard ([GET /dashboard],
    doc/serve.md). *)

val rows_of_entries : Journal.entry list -> Conferr_obsv.Report.row list
(** One row per entry, preserving journal order (the dashboard's
    frontier timeline reads order as campaign progress). *)
