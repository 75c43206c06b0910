(* Outside-in layer trace for the benchmark in this directory.

     layer_trace expect
       prints the hand-written Table 2 expectations of every corpus
       driver as one JSON object {short: [bug kind, ...]}.
     layer_trace trace --seconds S --seed K DRIVER[:fixed] ...
       runs the given sessions in-process, in a seeded order per pass,
       until S seconds have passed (at least one pass), and prints one
       JSON line per session.

   Spans are taken around calls into each layer's public entry points,
   never inside the engine: the image thunk (Mini-C compile), the three
   static pre-analyses a session runs, the whole session, and a cold
   re-solve of the session's distinct query groups. Engine and solver
   counters are not read from record fields: the line carries the
   session's [Ddt.pp_report] text and JSON report, and the harness reads
   counters from them by label, so this file keeps compiling when an
   engine layer (and its stats fields) is deleted. *)

module Corpus = Ddt_drivers.Corpus
module Solver = Ddt_solver.Solver
module Qcache = Ddt_solver.Qcache
module Config = Ddt_core.Config

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let expect () =
  let row (e : Corpus.entry) =
    Printf.sprintf "%s:[%s]" (json_string e.Corpus.short)
      (String.concat ","
         (List.map
            (fun (k, _) ->
              json_string (Ddt_checkers.Report.string_of_kind k))
            e.Corpus.expected_bugs))
  in
  print_endline ("{" ^ String.concat "," (List.map row Corpus.all) ^ "}")

(* The thunks memoize their image, so only a process's first call
   compiles: remember that first duration per variant. *)
let compile_times = Hashtbl.create 16

let image_of (e : Corpus.entry) fixed =
  let thunk = if fixed then e.Corpus.fixed_image else e.Corpus.image in
  let img, dt = timed thunk in
  let key = (e.Corpus.short, fixed) in
  if not (Hashtbl.mem compile_times key) then
    Hashtbl.replace compile_times key dt;
  (img, Hashtbl.find compile_times key)

let session ~pass (e, fixed) =
  let image, compile_s = image_of e fixed in
  let icfg, icfg_s = timed (fun () -> Ddt_staticx.Icfg.build image) in
  let contracts, model =
    match e.Corpus.driver_class with
    | Config.Network ->
        (Ddt_annot.Ndis_annotations.contracts,
         Ddt_annot.Ndis_annotations.model)
    | Config.Audio ->
        (Ddt_annot.Portcls_annotations.contracts,
         Ddt_annot.Portcls_annotations.model)
  in
  let _, sfind_s =
    timed (fun () -> Ddt_staticx.Sfind.analyze ~contracts ~model icfg)
  in
  let _, pdom_s = timed (fun () -> Ddt_staticx.Pdom.compute icfg) in
  let cfg = Corpus.config ~fixed e in
  let before = Solver.stats () in
  let r, session_s = timed (fun () -> Ddt_core.Ddt.test_driver cfg) in
  let sv = Solver.diff_stats (Solver.stats ()) before in
  (* Cold re-solve: the session's distinct groups, through the full
     solver pipeline, against an emptied cache. *)
  let groups = Qcache.Sharded.export_entries (Solver.current_cache ()) in
  Solver.clear_cache ();
  let (), replay_s =
    timed (fun () ->
        List.iter (fun pe -> ignore (Solver.check pe.Qcache.pe_orig)) groups)
  in
  Printf.printf
    "{\"driver\":%s,\"fixed\":%b,\"pass\":%d,\"compile_s\":%.6f,\
     \"icfg_s\":%.6f,\"sfind_s\":%.6f,\"pdom_s\":%.6f,\"session_s\":%.6f,\
     \"replay_s\":%.6f,\"cache_hits\":%d,\"cache_hit_rate\":%.6f,\
     \"text\":%s,\"report\":%s}\n%!"
    (json_string e.Corpus.short) fixed pass compile_s icfg_s sfind_s pdom_s
    session_s replay_s (Solver.cache_hits sv)
    (Solver.cache_hit_rate sv)
    (json_string (Format.asprintf "%a" Ddt_core.Ddt.pp_report r))
    (Ddt_core.Report_json.to_string (Ddt_core.Report_json.of_result r))

let parse_session s =
  match String.split_on_char ':' s with
  | [ d ] -> (Corpus.find d, false)
  | [ d; "fixed" ] -> (Corpus.find d, true)
  | _ -> raise Not_found

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let trace args =
  let seconds = ref 0.0 and seed = ref 0 and names = ref [] in
  let rec go = function
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--seed" :: k :: rest -> seed := int_of_string k; go rest
    | s :: rest -> names := s :: !names; go rest
    | [] -> ()
  in
  go args;
  let sessions = List.rev_map parse_session !names in
  let rng = Random.State.make [| !seed |] in
  let t0 = Unix.gettimeofday () in
  let rec passes pass =
    List.iter (session ~pass) (shuffle rng sessions);
    if Unix.gettimeofday () -. t0 < !seconds then passes (pass + 1)
  in
  passes 0

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "expect" ] -> expect ()
  | "trace" :: args -> (
      try trace args
      with Not_found | Failure _ ->
        prerr_endline "layer_trace: bad session list or option";
        exit 2)
  | _ ->
      prerr_endline
        "usage: layer_trace expect | layer_trace trace --seconds S --seed K \
         DRIVER[:fixed]...";
      exit 2
