(* Versioned machine-readable session reports. The summary record holds
   ints and strings only (percentages are derived at print time), so a
   parse of an emitted document compares structurally equal to the
   original — the round-trip property the schema test pins. *)

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

(* --- emission --- *)

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

(* --- parsing: a minimal JSON reader covering what [to_string] emits
   (objects, arrays, strings with the escapes above, integers, null) --- *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_int of int
  | J_null

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else raise (Bad (Printf.sprintf "expected '%c' at %d" c !pos))
  in
  let skip_ws () =
    while
      !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t'
                   || s.[!pos] = '\r')
    do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then raise (Bad "truncated escape"));
          (match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'u' ->
               advance ();
               if !pos + 4 > n then raise (Bad "truncated \\u");
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xFF))
           | c -> raise (Bad (Printf.sprintf "bad escape '\\%c'" c)));
          loop ()
      | c -> Buffer.add_char b c; advance (); loop ()
    in
    loop ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); J_obj [])
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> raise (Bad "expected ',' or '}'")
          in
          J_obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); J_arr [])
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> raise (Bad "expected ',' or ']'")
          in
          J_arr (items [])
        end
    | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          J_null
        end
        else raise (Bad "bad literal")
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then advance ();
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          advance ()
        done;
        if !pos = start then raise (Bad "bad number");
        J_int (int_of_string (String.sub s start (!pos - start)))
    | _ -> raise (Bad "unexpected input")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage");
  v

let field k = function
  | J_obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> raise (Bad ("missing field " ^ k)))
  | _ -> raise (Bad "not an object")

let as_int = function J_int i -> i | _ -> raise (Bad "expected int")
let as_str = function J_str s -> s | _ -> raise (Bad "expected string")
let as_arr = function J_arr xs -> xs | _ -> raise (Bad "expected array")

let bug_row_of j =
  { jb_kind = as_str (field "kind" j); jb_key = as_str (field "key" j);
    jb_entry = as_str (field "entry" j); jb_pc = as_int (field "pc" j);
    jb_message = as_str (field "message" j) }

let incident_row_of j =
  { ji_kind = as_str (field "kind" j);
    ji_state_id = as_int (field "state_id" j);
    ji_entry = as_str (field "entry" j); ji_pc = as_int (field "pc" j);
    ji_message = as_str (field "message" j);
    ji_replay = as_str (field "replay" j) }

let of_string str =
  match parse_json str with
  | exception Bad _ -> None
  | exception _ -> None
  | j -> (
      try
        let schema = as_int (field "schema" j) in
        if schema <> schema_version then None
        else
          Some
            {
              j_schema = schema;
              j_driver = as_str (field "driver" j);
              j_bugs = List.map bug_row_of (as_arr (field "bugs" j));
              j_reachable_blocks = as_int (field "reachable_blocks" j);
              j_covered_reachable = as_int (field "covered_reachable" j);
              j_never_reached =
                List.map as_int (as_arr (field "never_reached" j));
              j_invocations = as_int (field "invocations" j);
              j_finished_states = as_int (field "finished_states" j);
              j_paths_to_first_bug =
                (match field "paths_to_first_bug" j with
                 | J_null -> None
                 | v -> Some (as_int v));
              j_incidents =
                List.map incident_row_of (as_arr (field "incidents" j));
              j_total_steps = as_int (field "total_steps" j);
              j_merged_states = as_int (field "merged_states" j);
              j_merge_ites = as_int (field "merge_ites" j);
              j_merge_forks_avoided =
                as_int (field "merge_forks_avoided" j);
            }
      with Bad _ -> None)

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
