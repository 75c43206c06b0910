(** Versioned machine-readable session reports.

    The summary record carries only ints and strings (percentages are
    derived at print time). Consumers parse the documents with any JSON
    reader and check {!schema_version}, which changes whenever a field
    does. *)

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

val write_file : string -> summary -> (unit, string) result
(** Serialize with {!to_string} and write atomically (tmp + rename): a
    crash mid-write leaves either the previous file or the new one,
    never a torn document. [Error reason] on I/O failure. *)
