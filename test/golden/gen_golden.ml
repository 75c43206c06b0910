(* Writes the golden corpus reports into the current directory: for every
   corpus driver D and both variants, the session report that
   `ddt_cli test D [--fixed] --json-out` writes ([D.json],
   [D-fixed.json]), byte for byte, the interprocedural static finder's
   findings as a schema-6 JSON document ([D.analyze.json],
   [D-fixed.analyze.json]), and the static baseline's findings that
   `ddt_cli static D [--fixed]` lists, without its wall time
   ([D.static.txt], [D-fixed.static.txt]).
   The dune rules next to this file diff each one against the checked-in
   copy; `dune promote` accepts an intended change. *)

module Corpus = Ddt_drivers.Corpus
module Config = Ddt_core.Config
module Report_json = Ddt_core.Report_json
module Sfind = Ddt_staticx.Sfind

let write name doc =
  Out_channel.with_open_bin name (fun oc -> Out_channel.output_string oc doc)

(* The CLI's default session: one worker, merging on. *)
let session_doc entry ~fixed =
  Report_json.to_string
    (Report_json.of_result
       (Ddt_core.Ddt.test_driver (Corpus.config ~fixed entry)))

(* The schema-6 findings document: a schema version, the driver name
   and one row per finding. Each row keeps the schema's confirmation
   columns at their fixed "no confirmation" values. *)
let statics_schema_version = 6

let jstr s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
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
  Buffer.add_char b '"';
  Buffer.contents b

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let static_row_json (f : Sfind.finding) =
  jobj
    [ ("rule", jstr f.Sfind.f_rule); ("func", jstr f.Sfind.f_func);
      ("pos", string_of_int f.Sfind.f_pos); ("message", jstr f.Sfind.f_msg);
      ("severity", jstr "static"); ("confirm", jstr "n/a");
      ("confirmed_by", jstr "") ]

let statics_to_string ~driver findings =
  jobj
    [ ("schema", string_of_int statics_schema_version);
      ("driver", jstr driver);
      ("static", "[" ^ String.concat "," (List.map static_row_json findings)
                 ^ "]") ]

(* Every rule of the interprocedural static finder, under the driver
   class's contracts and API model. *)
let analyze_doc (entry : Corpus.entry) ~fixed =
  let image =
    if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
  in
  let contracts, model =
    match entry.Corpus.driver_class with
    | Config.Network ->
        (Ddt_annot.Ndis_annotations.contracts, Ddt_annot.Ndis_annotations.model)
    | Config.Audio ->
        ( Ddt_annot.Portcls_annotations.contracts,
          Ddt_annot.Portcls_annotations.model )
  in
  statics_to_string ~driver:entry.Corpus.name
    (Sfind.analyze ~contracts ~model (Ddt_staticx.Icfg.build image))

(* What `static` finds: the function count, then each finding's rule,
   function and position. *)
let static_doc (entry : Corpus.entry) ~fixed =
  let image =
    if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
  in
  let r = Ddt_baseline.Static.analyze ~name:entry.Corpus.name image in
  String.concat ""
    (Printf.sprintf "%d function(s)\n" r.Ddt_baseline.Static.st_functions
     :: List.map
          (fun (f : Ddt_baseline.Absint.finding) ->
            Printf.sprintf "[%s] %s at 0x%x\n" f.Ddt_baseline.Absint.fi_rule
              f.Ddt_baseline.Absint.fi_func f.Ddt_baseline.Absint.fi_pos)
          r.Ddt_baseline.Static.st_findings)

let () =
  List.iter
    (fun (entry : Corpus.entry) ->
      List.iter
        (fun fixed ->
          let stem = entry.Corpus.short ^ if fixed then "-fixed" else "" in
          write (stem ^ ".json.gen") (session_doc entry ~fixed);
          write (stem ^ ".analyze.json.gen") (analyze_doc entry ~fixed);
          write (stem ^ ".static.txt.gen") (static_doc entry ~fixed))
        [ false; true ])
    Corpus.all
