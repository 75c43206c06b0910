(* Versioned machine-readable session reports. The summary record holds
   ints and strings only (percentages are derived at print time). The
   project emits these documents and never reads them back; consumers
   parse them with any JSON reader. *)

module Report = Ddt_checkers.Report

let schema_version = 11

type bug_row = {
  jb_kind : string;
  jb_key : string;
  jb_entry : string;
  jb_pc : int;
  jb_message : string;
}

type incident_row = {
  ji_kind : string;
  ji_state_id : int;
  ji_entry : string;
  ji_pc : int;
  ji_message : string;
  ji_replay : string;
  (* the incident's [Replay.script], serialized with [Replay.to_string]
     so a consumer can re-run the quarantined path verbatim *)
}

type summary = {
  j_schema : int;
  j_driver : string;
  j_bugs : bug_row list;
  j_reachable_blocks : int;
  j_covered_reachable : int;
  j_never_reached : int list;
  j_invocations : int;
  j_finished_states : int;
  j_paths_to_first_bug : int option;
  j_incidents : incident_row list;
  j_total_steps : int;
  (* schema 4: post-dominator state-merging counters (all 0 when merging
     is off or never triggered) *)
  j_merged_states : int;
  j_merge_ites : int;
  j_merge_forks_avoided : int;
}

let of_result (r : Session.result) =
  {
    j_schema = schema_version;
    j_driver = r.Session.r_driver;
    j_bugs =
      List.map
        (fun (b : Report.bug) ->
          { jb_kind = Report.string_of_kind b.Report.b_kind;
            jb_key = b.Report.b_key;
            jb_entry = b.Report.b_entry;
            jb_pc = b.Report.b_pc;
            jb_message = b.Report.b_message })
        r.Session.r_bugs;
    j_reachable_blocks = r.Session.r_reachable_blocks;
    j_covered_reachable = r.Session.r_covered_reachable;
    j_never_reached = r.Session.r_never_reached;
    j_invocations = r.Session.r_invocations;
    j_finished_states = r.Session.r_finished_states;
    j_paths_to_first_bug = r.Session.r_paths_to_first_bug;
    j_incidents =
      List.map
        (fun (i : Report.incident) ->
          let open Ddt_symexec.Guard in
          { ji_kind = kind_label i.inc_kind;
            ji_state_id = i.inc_state_id;
            ji_entry = i.inc_entry;
            ji_pc = i.inc_pc;
            ji_message = i.inc_message;
            ji_replay = Ddt_trace.Replay.to_string i.inc_replay })
        r.Session.r_incidents;
    j_total_steps = r.Session.r_stats.Ddt_symexec.Exec.st_total_steps;
    j_merged_states = r.Session.r_stats.Ddt_symexec.Exec.st_merged_states;
    j_merge_ites = r.Session.r_stats.Ddt_symexec.Exec.st_merge_ites;
    j_merge_forks_avoided =
      r.Session.r_stats.Ddt_symexec.Exec.st_merge_forks_avoided;
  }

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ escape s ^ "\""

let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let bug_row_json b =
  jobj
    [ ("kind", jstr b.jb_kind); ("key", jstr b.jb_key);
      ("entry", jstr b.jb_entry); ("pc", string_of_int b.jb_pc);
      ("message", jstr b.jb_message) ]

let incident_row_json i =
  jobj
    [ ("kind", jstr i.ji_kind); ("state_id", string_of_int i.ji_state_id);
      ("entry", jstr i.ji_entry); ("pc", string_of_int i.ji_pc);
      ("message", jstr i.ji_message); ("replay", jstr i.ji_replay) ]

let to_string s =
  jobj
    [ ("schema", string_of_int s.j_schema);
      ("driver", jstr s.j_driver);
      ("bugs", jlist bug_row_json s.j_bugs);
      ("reachable_blocks", string_of_int s.j_reachable_blocks);
      ("covered_reachable", string_of_int s.j_covered_reachable);
      ("never_reached", jlist string_of_int s.j_never_reached);
      ("invocations", string_of_int s.j_invocations);
      ("finished_states", string_of_int s.j_finished_states);
      ("paths_to_first_bug",
       (match s.j_paths_to_first_bug with
        | None -> "null"
        | Some n -> string_of_int n));
      ("incidents", jlist incident_row_json s.j_incidents);
      ("total_steps", string_of_int s.j_total_steps);
      ("merged_states", string_of_int s.j_merged_states);
      ("merge_ites", string_of_int s.j_merge_ites);
      ("merge_forks_avoided", string_of_int s.j_merge_forks_avoided) ]

(* Crash-safe report emission: the document lands under a temporary name
   and is renamed into place, so a reader (or a crash mid-write) never
   observes a half-written report. *)
let write_file path s =
  let doc = to_string s in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc doc);
    Sys.rename tmp path;
    Ok ()
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error e
