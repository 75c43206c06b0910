(* Writes the golden corpus reports into the current directory: for every
   corpus driver D and both variants, the session report that
   `ddt_cli test D [--fixed] --json-out` writes ([D.json],
   [D-fixed.json]) and the document `ddt_cli analyze D [--fixed] --json`
   prints ([D.analyze.json], [D-fixed.analyze.json]), byte for byte,
   and the static baseline's findings that `ddt_cli static D [--fixed]`
   lists, without its wall time ([D.static.txt], [D-fixed.static.txt]).
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

(* What `analyze --json` prints: every rule. *)
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
  Report_json.statics_to_string ~driver:entry.Corpus.name
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
