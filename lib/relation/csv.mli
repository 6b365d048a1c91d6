(** CSV persistence for TP relations.

    Format: a header line [col1,...,colN,lineage,ts,te,p], then one line
    per tuple. Lineages use the ASCII formula notation. Commas inside
    values are not supported (values are workload identifiers, not free
    text). *)

exception Error of { path : string; line : int option; message : string }
(** Malformed input: bad header, wrong field count, unparsable cell, or
    an unreadable file. [line] is 1-based ([None] when the problem is
    not tied to one line). Rendered "path:line: message" by
    [Printexc.to_string] and by the CLI's diagnostic reporter. *)

val save : string -> Relation.t -> unit

val load : name:string -> string -> Relation.t
(** Raises {!Error} with file/line context on malformed input. *)

val to_channel : out_channel -> Relation.t -> unit

val to_string : Relation.t -> string
(** The full CSV document (header + rows) as a string — what {!save}
    writes. Used to embed reproducible inputs in fuzzer and qcheck
    counterexample reports. *)

val of_string : name:string -> ?path:string -> string -> Relation.t
(** Parses a whole document: lines end in ['\n'] (a final one is
    optional), empty lines are skipped but counted. [path] (default
    ["<csv>"]) is only used in {!Error} diagnostics. Raises {!Error}. *)
