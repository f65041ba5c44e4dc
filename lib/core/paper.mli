(** Drivers that regenerate every table and figure of the paper's
    evaluation (§5).

    Each function runs the corresponding experiment against the simulated
    SUTs and returns structured results plus a textual rendering shaped
    like the paper's table.  Seeds make every run reproducible. *)

(** {1 Table 1 — resilience to typos (§5.2)} *)

type table1 = { profiles : Profile.t list }

val table1 : ?seed:int -> ?faultload:Campaign.faultload -> unit -> table1
(** MySQL, Postgres and Apache under the typo faultload. *)

val render_table1 : table1 -> string

(** {1 Table 2 — resilience to structural errors (§5.3)} *)

type table2 = { checks : Structural_check.t list }

val table2 : ?seed:int -> ?count:int -> unit -> table2

val render_table2 : table2 -> string

(** {1 Table 3 — resilience to semantic errors (§5.4)} *)

type verdict = Found | Not_found | Na
(** Whether the SUT detected the injected fault class, or the fault was
    not expressible in its configuration language. *)

type table3_row = {
  fault : Dnsmodel.Rfc1912.fault;
  bind : verdict;
  djbdns : verdict;
}

type table3 = { rows : table3_row list }

val table3 : ?seed:int -> ?faults:Dnsmodel.Rfc1912.fault list -> unit -> table3

val render_table3 : table3 -> string

(** {1 Figure 3 — comparing error resilience (§5.5)} *)

type figure3 = { results : Compare.t list }

val figure3 : ?seed:int -> ?experiments:int -> unit -> figure3

val render_figure3 : figure3 -> string

(** {1 Extension: the §5.5 comparison method on the DNS pair} *)

(** {1 Configuration-process benchmark (§5.5's procedure)} *)

val process_benchmark : ?seed:int -> ?experiments:int -> unit -> Process_bench.t list
(** Simulates the administrator's configuration process: valid edits
    followed by typos injected near them (Postgres first, then MySQL). *)

val render_process_benchmark : Process_bench.t list -> string

(** {1 Whole evaluation} *)

val run_all : ?seed:int -> unit -> string
(** Renders all tables and the figure, separated by headers — what
    [bench/main.exe] and the CLI print. *)
