(* Distributed exploration: wire-protocol robustness, shared-store
   concurrency, and bug-set parity between the multi-process
   coordinator and the single-process oracle — including with a worker
   SIGKILLed mid-run. *)

open Ddt_core
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus
module Proto = Ddt_dist.Proto
module Dist = Ddt_dist.Dist
module Serve = Ddt_dist.Serve
module Blob = Ddt_solver.Blob
module Qcache = Ddt_solver.Qcache
module Pstore = Ddt_solver.Pstore
module Expr = Ddt_solver.Expr

let bug_keys r =
  List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)

let oracle entry = Ddt.test_driver (Corpus.config entry)

let check_parity ?kill_worker ~workers entry =
  let seq = bug_keys (oracle entry) in
  let r, _ = Dist.run ~workers ?kill_worker (Corpus.config entry) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: %d-worker bug set = sequential" entry.Corpus.short
       workers)
    seq (bug_keys r)

(* {2 Wire framing} *)

let frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 '\xff'; "hello\nworld" ] in
  let stream = String.concat "" (List.map Proto.frame payloads) in
  let rec pop acc buf =
    match Proto.extract buf with
    | Ok None ->
        Alcotest.(check string) "no residue" "" buf;
        List.rev acc
    | Ok (Some (p, rest)) -> pop (p :: acc) rest
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "all frames recovered" payloads
    (pop [] stream)

let qcheck_framing =
  QCheck.Test.make ~count:500 ~name:"framed stream reassembles at any split"
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) small_nat)
    (fun (payloads, cut) ->
      let stream = String.concat "" (List.map Proto.frame payloads) in
      (* Feed the stream in two arbitrary chunks through a buffer, the
         way the conn layer does, and demand the same payloads out. *)
      let cut = min cut (String.length stream) in
      let feed bufs =
        let rec go acc buf = function
          | [] -> (acc, buf)
          | chunk :: rest ->
              let buf = buf ^ chunk in
              let rec drain acc buf =
                match Proto.extract buf with
                | Ok None -> (acc, buf)
                | Ok (Some (p, rest')) -> drain (p :: acc) rest'
                | Error e -> Alcotest.fail e
              in
              let acc, buf = drain acc buf in
              go acc buf rest
        in
        go [] "" bufs
      in
      let got, residue =
        feed
          [ String.sub stream 0 cut;
            String.sub stream cut (String.length stream - cut) ]
      in
      residue = "" && List.rev got = payloads)

let qcheck_truncation =
  QCheck.Test.make ~count:500 ~name:"truncated stream never yields a frame"
    QCheck.(pair (string_of_size Gen.small_nat) small_nat)
    (fun (payload, drop) ->
      let f = Proto.frame payload in
      let drop = 1 + (drop mod String.length f) in
      let truncated = String.sub f 0 (String.length f - drop) in
      match Proto.extract truncated with
      | Ok None -> true
      | Ok (Some _) -> false
      | Error _ -> true (* a mangled length is allowed to be an error *))

let corrupt_length_is_error () =
  (* A negative / absurd length prefix must be a clean error, not an
     allocation or a hang. *)
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 0x7FFFFFFFl;
  (match Proto.extract (Bytes.to_string b) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversized length accepted");
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (-1l);
  match Proto.extract (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative length accepted"

let corrupt_payload_is_error () =
  let f = Proto.frame (Blob.encode [ 1; 2; 3 ]) in
  (* Flip a byte inside the blob payload: the CRC must catch it. *)
  let b = Bytes.of_string f in
  let i = Bytes.length b - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  match Proto.extract (Bytes.to_string b) with
  | Ok (Some (payload, _)) -> (
      match Proto.decode_payload payload with
      | Error _ -> ()
      | Ok (_ : int list) -> Alcotest.fail "corrupt payload decoded")
  | Ok None -> Alcotest.fail "complete frame not extracted"
  | Error _ -> ()

(* {2 Shared persistent store under concurrent writers} *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddt_dist_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* Several processes saving overlapping entry sets into one store
   directory must converge: every entry readable afterwards, no
   partial files, racing writers of the same digest harmless. *)
let concurrent_writers_converge () =
  with_tmpdir (fun dir ->
      let mk_cache n =
        let c = Qcache.Sharded.create () in
        for i = 0 to 63 do
          let v = Expr.fresh_var ~name:(Printf.sprintf "w%d" i) Expr.W32 in
          Qcache.Sharded.store_unsat c
            (Qcache.query [ Expr.cmp Expr.Eq (Expr.var v) (Expr.word (n + i)) ])
        done;
        c
      in
      let writers = 4 in
      let pids =
        List.init writers (fun w ->
            match Unix.fork () with
            | 0 ->
                (* Overlapping sets: writers w and w+1 share half their
                   entries, so same-digest races actually happen. *)
                let c = mk_cache (w * 32) in
                (match Pstore.open_store ~dir ~key:"conc" with
                 | Ok s -> ignore (Pstore.save s c)
                 | Error _ -> Unix._exit 1);
                Unix._exit 0
            | pid -> pid)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "writer process failed")
        pids;
      match Pstore.open_store ~dir ~key:"conc" with
      | Error e -> Alcotest.fail e
      | Ok s ->
          let c = Qcache.Sharded.create () in
          let loaded = Pstore.load ~index_subsets:false s c in
          Alcotest.(check int) "no unreadable entries" 0 (Pstore.skipped s);
          Alcotest.(check bool)
            (Printf.sprintf "all distinct entries present (loaded %d)" loaded)
            true (loaded > 0))

let refresh_sees_other_writers () =
  with_tmpdir (fun dir ->
      (* Distinct [base] ranges keep the two caches' renamed canonical
         keys disjoint — entries already present refuse to re-import. *)
      let mk_cache tag base n =
        let c = Qcache.Sharded.create () in
        for i = base to base + n - 1 do
          let v = Expr.fresh_var ~name:(tag ^ string_of_int i) Expr.W32 in
          Qcache.Sharded.store_unsat c
            (Qcache.query [ Expr.cmp Expr.Eq (Expr.var v) (Expr.word i) ])
        done;
        c
      in
      match
        (Pstore.open_store ~dir ~key:"r", Pstore.open_store ~dir ~key:"r")
      with
      | Ok a, Ok b ->
          let ca = mk_cache "a" 100 5 in
          ignore (Pstore.load ~index_subsets:false a ca);
          let wrote = Pstore.save b (mk_cache "b" 0 7) in
          Alcotest.(check int) "writer flushed" 7 wrote;
          let fresh = Pstore.refresh ~index_subsets:false a ca in
          Alcotest.(check int) "reader imported the flush lazily" 7 fresh;
          Alcotest.(check int) "second refresh is a no-op" 0
            (Pstore.refresh ~index_subsets:false a ca)
      | _ -> Alcotest.fail "open_store failed")

(* {2 Coordinator parity} *)

let parity_case ~workers short () = check_parity ~workers (Corpus.find short)

let kill_case ~workers short () =
  check_parity ~workers ~kill_worker:0 (Corpus.find short)

let serve_roundtrip () =
  with_tmpdir (fun dir ->
      let socket_path = Filename.concat dir "ddt.sock" in
      match Unix.fork () with
      | 0 ->
          let resolve (j : Serve.job) =
            match Corpus.find j.Serve.jq_driver with
            | e -> Ok (Corpus.config ~fixed:j.Serve.jq_fixed e)
            | exception Not_found -> Error ("unknown driver " ^ j.Serve.jq_driver)
          in
          ignore (Serve.serve ~socket_path ~max_jobs:1 ~resolve ());
          Unix._exit 0
      | pid ->
          let rec wait_sock n =
            if n = 0 then Alcotest.fail "server socket never appeared";
            if not (Sys.file_exists socket_path) then begin
              Unix.sleepf 0.05;
              wait_sock (n - 1)
            end
          in
          wait_sock 200;
          let lines =
            match
              Serve.submit ~socket_path
                { Serve.jq_driver = "rtl8029"; jq_fixed = false; jq_workers = 2 }
            with
            | Ok l -> l
            | Error e -> Alcotest.fail e
          in
          ignore (Unix.waitpid [] pid);
          let report =
            List.filter_map Report_json.of_string lines |> function
            | [ r ] -> r
            | _ -> Alcotest.fail "expected exactly one schema report line"
          in
          Alcotest.(check string) "served driver"
            (Corpus.config (Corpus.find "rtl8029")).Config.driver_name
            report.Report_json.j_driver;
          let seq = bug_keys (oracle (Corpus.find "rtl8029")) in
          Alcotest.(check (list string)) "served bug set = sequential" seq
            (List.sort compare
               (List.map
                  (fun b -> b.Report_json.jb_key)
                  report.Report_json.j_bugs)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ddt_dist"
    [
      ( "proto",
        [
          Alcotest.test_case "frame roundtrip" `Quick frame_roundtrip;
          qt qcheck_framing;
          qt qcheck_truncation;
          Alcotest.test_case "corrupt length" `Quick corrupt_length_is_error;
          Alcotest.test_case "corrupt payload" `Quick corrupt_payload_is_error;
        ] );
      ( "pstore",
        [
          Alcotest.test_case "concurrent writers converge" `Quick
            concurrent_writers_converge;
          Alcotest.test_case "refresh imports other writers lazily" `Quick
            refresh_sees_other_writers;
        ] );
      ( "parity",
        List.concat_map
          (fun e ->
            [
              Alcotest.test_case
                (Printf.sprintf "%s 2-worker parity" e.Corpus.short)
                `Quick
                (parity_case ~workers:2 e.Corpus.short);
            ])
          Corpus.all
        @ [
            Alcotest.test_case "rtl8029 1-worker parity" `Quick
              (parity_case ~workers:1 "rtl8029");
            Alcotest.test_case "rtl8029 4-worker parity" `Quick
              (parity_case ~workers:4 "rtl8029");
          ] );
      ( "recovery",
        List.map
          (fun e ->
            Alcotest.test_case
              (Printf.sprintf "%s parity with worker 0 killed" e.Corpus.short)
              `Quick
              (kill_case ~workers:2 e.Corpus.short))
          Corpus.all );
      ("serve", [ Alcotest.test_case "serve/submit roundtrip" `Quick
                    serve_roundtrip ]);
    ]
