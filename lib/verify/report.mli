(** Verifier verdicts.

    Both prongs of the stack verifier — the static channel-graph
    checker and the dynamic pool-ownership sanitizer — speak this one
    result type: a list of checks with how many subjects each examined,
    and a list of violations, each attributed to a culprit component.
    The report renders human-readable (for the CLI) and as JSON (for
    CI). *)

type violation = {
  check : string;  (** Which rule fired, e.g. ["spsc"] or ["double-free"]. *)
  subject : string;  (** What was being checked, e.g. a channel name. *)
  culprit : string;  (** The offending component (or ["unattributed"]). *)
  detail : string;  (** Human-readable explanation. *)
}

type t = {
  title : string;
  checks : (string * int) list;
      (** [(check name, subjects examined)], in execution order. *)
  violations : violation list;
}

val ok : t -> bool
(** No violations. *)

val exit_code : t -> int
(** The process exit code every checker CLI uses: 0 when {!ok}, 1 on
    violations. Exit 2 is reserved for unusable configurations (the
    native no-silent-fallback guard), so a scripted caller can tell
    "found a bug" from "could not check". *)

val merge : title:string -> t list -> t
(** Concatenate several reports (e.g. static + sanitizer) under one
    title; per-check subject counts of the same check name are summed. *)

val pp : Format.formatter -> t -> unit
(** Readable multi-line rendering: one line per check with its subject
    count, then one block per violation. *)

val to_string : t -> string

val to_json : t -> string
(** Machine-readable verdict:
    [{"title":…,"ok":…,"checks":{…},"violations":[…]}]. *)

val violation_json : violation -> string
(** One violation as [{"check":…,"subject":…,"culprit":…,"detail":…}]:
    the one shape every checker's machine-readable verdict uses. *)

val json_escape : string -> string
(** Escape a string for embedding in the hand-rolled JSON (also used
    by the model checker's counterexample traces). *)
