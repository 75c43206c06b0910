(** Versioned machine-readable session reports.

    The summary record carries only ints and strings (percentages are
    derived at print time), so emitting and re-parsing a report yields a
    structurally equal value — the round-trip property the schema test
    pins. Consumers check {!schema_version}; {!of_string} rejects
    documents from any other version rather than guessing. *)

val schema_version : int

type bug_row = {
  jb_kind : string;
  jb_key : string;
  jb_entry : string;
  jb_pc : int;
  jb_message : string;
}

type incident_row = {
  ji_kind : string;     (** "state-fault" | "solver-exhaustion" *)
  ji_state_id : int;    (** the faulting state *)
  ji_entry : string;
  ji_pc : int;
  ji_message : string;
  ji_replay : string;
  (** the quarantined state's replay script, serialized with
      [Ddt_trace.Replay.to_string] *)
}

type summary = {
  j_schema : int;
  j_driver : string;
  j_bugs : bug_row list;
  j_reachable_blocks : int;    (** ICFG universe size *)
  j_covered_reachable : int;   (** blocks of that universe executed *)
  j_never_reached : int list;  (** sorted image-relative leaders *)
  j_invocations : int;
  j_finished_states : int;
  j_paths_to_first_bug : int option;
  j_incidents : incident_row list;
  j_total_steps : int;         (** instructions executed *)
  j_merged_states : int;       (** states fused at post-dominators (schema 4) *)
  j_merge_ites : int;          (** registers/bytes lifted to ite at merges *)
  j_merge_forks_avoided : int; (** forks the fused states would have spawned *)
}

val of_result : Session.result -> summary

val to_string : summary -> string
(** One-line JSON document. *)

val of_string : string -> summary option
(** Parse a document emitted by {!to_string}. [None] on malformed input
    or a schema-version mismatch. *)

val write_file : string -> summary -> (unit, string) result
(** Serialize with {!to_string} and write atomically (tmp + rename): a
    crash mid-write leaves either the previous file or the new one,
    never a torn document. [Error reason] on I/O failure. *)
