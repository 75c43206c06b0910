(* Durability tests: checksummed blob containers, single-state
   snapshot/restore, and session checkpoint/kill-resume equivalence.

   The contract under test everywhere: a durability artifact that is
   corrupted, truncated or unwritable costs time (cold cache, lost
   checkpoint), never correctness (a changed verdict, a different bug
   set, or an exception escaping a reader). *)

module Expr = Ddt_solver.Expr
module Blob = Ddt_solver.Blob
module Solver = Ddt_solver.Solver
module Mem = Ddt_dvm.Mem
module Layout = Ddt_dvm.Layout
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Symmem = Ddt_symexec.Symmem
module St = Ddt_symexec.Symstate
module Snapshot = Ddt_symexec.Snapshot
module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Report_json = Ddt_core.Report_json
module Corpus = Ddt_drivers.Corpus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qtest t = QCheck_alcotest.to_alcotest t

let tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddt_durable_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let is_error = function Error _ -> true | Ok _ -> false

(* --- Blob ------------------------------------------------------------------ *)

let test_blob_roundtrip () =
  let v = ([ 1; 2; 3 ], "hello", Some 4.5) in
  match Blob.decode (Blob.encode v) with
  | Ok v' -> check_bool "round-trips" true (v = v')
  | Error e -> Alcotest.failf "decode failed: %s" e

(* Flipping any single byte — header, length field or payload — must
   yield a clean [Error], never an exception or a silently wrong value. *)
let test_blob_corrupt_every_byte () =
  let s = Blob.encode [ "some"; "payload"; "strings" ] in
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    match Blob.decode (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "byte %d flip went undetected" i
  done

let test_blob_truncations () =
  let s = Blob.encode (Array.init 64 string_of_int) in
  for len = 0 to String.length s - 1 do
    if not (is_error (Blob.decode (String.sub s 0 len))) then
      Alcotest.failf "truncation to %d bytes went undetected" len
  done

let test_blob_atomic_write_and_enospc () =
  let dir = tmpdir () in
  let path = Filename.concat dir "v.blob" in
  (match Blob.write_file path "version-1" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "first write failed: %s" e);
  (* Injected disk-full: the write fails, the previous contents
     survive, and no tmp litter is left behind. *)
  Blob.set_chaos_enospc 1;
  check_bool "disk-full write errors" true
    (is_error (Blob.write_file path "version-2"));
  (match Blob.read_file path with
   | Ok s -> check_string "previous contents intact" "version-1" s
   | Error e -> Alcotest.failf "read after failed write: %s" e);
  check_int "no tmp litter" 1 (Array.length (Sys.readdir dir));
  (match Blob.write_file path "version-2" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write after chaos: %s" e);
  match Blob.read_file path with
  | Ok s -> check_string "new contents" "version-2" s
  | Error e -> Alcotest.failf "final read: %s" e

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A failed read releases its channel: reading a directory (the open
   succeeds, the read fails) or a missing path many times must not grow
   the process's descriptor table. *)
let test_blob_read_errors_close () =
  if not (Sys.file_exists "/proc/self/fd") then
    Alcotest.skip ()
  else begin
    let dir = tmpdir () in
    let before = open_fds () in
    for _ = 1 to 50 do
      check_bool "directory read errors" true
        (is_error (Blob.read_file dir : (string, string) result));
      check_bool "missing-path read errors" true
        (is_error
           (Blob.read_file (Filename.concat dir "nope")
             : (string, string) result))
    done;
    check_int "no descriptors leaked" before (open_fds ())
  end

(* Several processes writing the same path concurrently: each write goes
   through its own tmp file and an atomic rename, so the survivor is one
   writer's whole value and no tmp file is left behind. *)
let test_blob_concurrent_writers () =
  let dir = tmpdir () in
  let path = Filename.concat dir "shared.blob" in
  let value w = Printf.sprintf "writer-%d:%s" w (String.make 4096 'x') in
  let writers = 4 in
  let pids =
    List.init writers (fun w ->
        match Unix.fork () with
        | 0 ->
            let ok = ref true in
            for _ = 1 to 50 do
              if is_error (Blob.write_file path (value w)) then ok := false
            done;
            Unix._exit (if !ok then 0 else 1)
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "writer process failed")
    pids;
  (match Blob.read_file path with
   | Ok (v : string) ->
       check_bool "one writer's whole value" true
         (List.exists (fun w -> v = value w) (List.init writers Fun.id))
   | Error e -> Alcotest.failf "read after concurrent writes: %s" e);
  check_bool "no tmp litter" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".tmp")
       (Sys.readdir dir))

(* --- Snapshot round-trip --------------------------------------------------- *)

let device () =
  Pci.assign_resources
    { Pci.vendor_id = 1; device_id = 2; revision = 0; bar_sizes = [ 0x1000 ];
      irq_line = 9 }
    ~mmio_base:Layout.mmio_base

(* A state-building recipe the generator can shrink: memory writes,
   forks (chain depth), constraints and replay pins. *)
type op =
  | Write8 of int * int
  | Write32 of int * int
  | WriteSym of int
  | Fork
  | Constrain of int
  | Pin of string * int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (frequency
         [ (4, map2 (fun a v -> Write8 (a land 0xFFF, v land 0xFF))
              (int_bound 0xFFF) (int_bound 0xFF));
           (4, map2 (fun a v -> Write32 ((a land 0xFFF) * 4, v))
              (int_bound 0xFFF) (int_bound 0xFFFFFF));
           (2, map (fun a -> WriteSym (a land 0xFFF)) (int_bound 0xFFF));
           (2, return Fork);
           (2, map (fun c -> Constrain (c land 0xFFFF)) (int_bound 0xFFFF));
           (1, map2 (fun n v -> Pin ("in" ^ string_of_int n, v))
              (int_bound 9) (int_bound 0xFFFF)) ]))

let build_state base ops =
  let heap = 0x0060_0000 in
  let mem = Symmem.create ~base ~symdev:None in
  let st = ref (St.create ~id:1 ~mem ~ks:(Kstate.create ~device:(device ()) ())) in
  let next_id = ref 2 in
  List.iter
    (fun op ->
      match op with
      | Write8 (a, v) ->
          Symmem.write_u8 !st.St.mem (heap + a) (Expr.byte v)
      | Write32 (a, v) ->
          Symmem.write_u32 !st.St.mem (heap + a) (Expr.word v)
      | WriteSym a ->
          Symmem.write_u8 !st.St.mem (heap + a)
            (Expr.var (Expr.fresh_var ~name:"m" Expr.W8))
      | Fork ->
          (* keep the child: chain depth grows on both sides *)
          st := St.fork !st ~id:!next_id;
          incr next_id
      | Constrain c ->
          St.add_constraint !st
            (Expr.cmp Expr.Ltu
               (Expr.var (Expr.fresh_var ~name:"c" Expr.W32))
               (Expr.word c))
      | Pin (n, v) ->
          !st.St.replay_inputs <- !st.St.replay_inputs @ [ (n, v) ])
    ops;
  !st.St.pc <- Layout.image_base + 0x40;
  !st.St.entry_name <- "unit";
  !st.St.steps <- List.length ops;
  !st

let states_agree base (a : St.t) (b : St.t) =
  a.St.id = b.St.id && a.St.parent_id = b.St.parent_id
  && a.St.pc = b.St.pc && a.St.regs = b.St.regs
  && a.St.constraints = b.St.constraints
  && a.St.replay_inputs = b.St.replay_inputs
  && a.St.pinned = b.St.pinned && a.St.status = b.St.status
  && a.St.depth = b.St.depth && a.St.entry_name = b.St.entry_name
  && a.St.steps = b.St.steps
  && a.St.forks = b.St.forks
  && Symmem.chain_depth a.St.mem = Symmem.chain_depth b.St.mem
  && Symmem.live_words a.St.mem = Symmem.live_words b.St.mem
  && (ignore base;
      (* the full written window reads back identically *)
      let ok = ref true in
      for a_ = 0x0060_0000 to 0x0060_0000 + 0x1003 do
        if Symmem.read_u8 a.St.mem a_ <> Symmem.read_u8 b.St.mem a_ then
          ok := false
      done;
      !ok)

let test_snapshot_roundtrip =
  QCheck.Test.make ~count:60 ~name:"snapshot/restore round-trips states"
    (QCheck.make gen_ops ~print:(fun ops ->
         string_of_int (List.length ops) ^ " ops"))
    (fun ops ->
      let base = Mem.create () in
      Mem.write_u32 base 0x0060_0000 0xBEEF;
      let st = build_state base ops in
      match Snapshot.restore ~base ~symdev:None (Snapshot.snapshot st) with
      | Error e -> QCheck.Test.fail_reportf "restore failed: %s" e
      | Ok st' -> states_agree base st st')

(* Snapshot restore keeps minting fresh variables above everything the
   snapshot used — a resumed state can never collide with new ones. *)
let test_snapshot_var_counter () =
  let base = Mem.create () in
  let st = build_state base [ Constrain 7; WriteSym 3 ] in
  let s = Snapshot.snapshot st in
  let high = Expr.var_counter_value () in
  Expr.reset_var_counter ();
  match Snapshot.restore ~base ~symdev:None s with
  | Error e -> Alcotest.failf "restore: %s" e
  | Ok _ ->
      check_bool "counter restored above snapshot's" true
        (Expr.var_counter_value () >= high)

let test_snapshot_corrupt_fuzz =
  QCheck.Test.make ~count:120 ~name:"corrupted snapshots fail cleanly"
    QCheck.(pair (make gen_ops) (pair small_nat small_nat))
    (fun (ops, (pos_seed, flip)) ->
      let base = Mem.create () in
      let st = build_state base ops in
      let s = Snapshot.snapshot st in
      let b = Bytes.of_string s in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (flip mod 255))));
      is_error (Snapshot.restore ~base ~symdev:None (Bytes.to_string b)))

let test_snapshot_save_load () =
  let dir = tmpdir () in
  let path = Filename.concat dir "st.snap" in
  let base = Mem.create () in
  let st = build_state base [ Write32 (8, 77); Fork; Constrain 3 ] in
  (match Snapshot.save path st with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %s" e);
  (match Snapshot.load ~base ~symdev:None path with
   | Ok st' -> check_bool "file round-trip" true (states_agree base st st')
   | Error e -> Alcotest.failf "load: %s" e);
  check_bool "missing file is a clean error" true
    (is_error (Snapshot.load ~base ~symdev:None (path ^ ".nope")))

(* --- Report JSON atomic write --------------------------------------------- *)

let quick_cfg (e : Corpus.entry) =
  let cfg = Corpus.config e in
  { cfg with
    Config.max_total_steps = 60_000; plateau_steps = 50_000;
    exec_config = { cfg.Config.exec_config with Ddt_symexec.Exec.jobs = 1 } }

let fresh_run cfg =
  (* Equalize process-global solver state so in-process runs behave like
     fresh processes (the cross-process case is covered by the make
     check smoke). *)
  Solver.clear_cache ();
  Expr.reset_var_counter ();
  Session.run cfg

let test_report_json_write_file () =
  let dir = tmpdir () in
  let path = Filename.concat dir "report.json" in
  let r = fresh_run (quick_cfg (Corpus.find "audiopci")) in
  let summary = Report_json.of_result r in
  (match Report_json.write_file path summary with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write_file: %s" e);
  check_int "no tmp litter" 1 (Array.length (Sys.readdir dir));
  let doc = In_channel.with_open_bin path In_channel.input_all in
  check_string "document round-trips" (Report_json.to_string summary) doc;
  check_bool "parses back" true (Report_json.of_string doc <> None)

(* --- Session checkpoint / kill-resume -------------------------------------- *)

(* The in-process equivalence triangle on a real corpus driver:
   checkpointing must not perturb the run, and resuming the leftover
   mid-run checkpoint must land on the oracle's exact report. *)
let test_checkpoint_resume_identical () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "drv.ckpt" in
  let e = Corpus.find "rtl8029" in
  let oracle = Report_json.to_string (Report_json.of_result (fresh_run (quick_cfg e))) in
  let ck_cfg =
    { (quick_cfg e) with
      Config.checkpoint_every = 1500; checkpoint_path = Some ckpt }
  in
  let with_ck =
    Report_json.to_string (Report_json.of_result (fresh_run ck_cfg))
  in
  check_string "checkpointing does not perturb the run" oracle with_ck;
  check_bool "a mid-run checkpoint was left behind" true (Sys.file_exists ckpt);
  (match Session.checkpoint_driver ckpt with
   | Ok d -> check_string "driver peek" e.Corpus.name d
   | Error err -> Alcotest.failf "checkpoint_driver: %s" err);
  Solver.clear_cache ();
  Expr.reset_var_counter ();
  match Session.resume ck_cfg ~path:ckpt with
  | Error err -> Alcotest.failf "resume: %s" err
  | Ok r ->
      check_string "resumed report is byte-identical" oracle
        (Report_json.to_string (Report_json.of_result r))

let test_checkpoint_corrupt_resume_errors () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "drv.ckpt" in
  let e = Corpus.find "audiopci" in
  let ck_cfg =
    { (quick_cfg e) with
      Config.checkpoint_every = 500; checkpoint_path = Some ckpt }
  in
  ignore (fresh_run ck_cfg);
  check_bool "checkpoint exists" true (Sys.file_exists ckpt);
  let data = In_channel.with_open_bin ckpt In_channel.input_all in
  (* corrupt a payload byte *)
  let b = Bytes.of_string data in
  let pos = Bytes.length b / 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x55));
  Out_channel.with_open_bin ckpt (fun oc ->
      Out_channel.output_bytes oc b);
  check_bool "corrupt checkpoint refused" true
    (is_error (Session.resume ck_cfg ~path:ckpt));
  (* truncation *)
  Out_channel.with_open_bin ckpt (fun oc ->
      Out_channel.output_string oc (String.sub data 0 64));
  check_bool "truncated checkpoint refused" true
    (is_error (Session.resume ck_cfg ~path:ckpt));
  (* wrong driver *)
  Out_channel.with_open_bin ckpt (fun oc ->
      Out_channel.output_string oc data);
  let other = quick_cfg (Corpus.find "pcnet") in
  check_bool "wrong-driver checkpoint refused" true
    (is_error (Session.resume other ~path:ckpt))

(* A real durability blob re-framed with its leading version field set
   to [v]: snapshot and checkpoint payloads both start with their
   version, which is all a reader looks at before trusting the layout. *)
let with_version blob v =
  match Blob.decode blob with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok (payload : Obj.t) ->
      let p = Obj.dup payload in
      Obj.set_field p 0 (Obj.repr v);
      Blob.encode p

(* Blobs from every earlier layout must be refused, not unmarshalled as
   the current one: version 1 predates the page-granular memory, version
   2 the per-page write marks and the state's fork count, checkpoint
   version 3 the query cache's array-valued reuse models, checkpoint
   version 4 still carried the block compiler's dispositions, checkpoint
   version 5 held the query-cache dump as an option, and checkpoint
   version 6 flagged cache entries loaded from the on-disk store. *)
let older_versions current = List.init (current - 1) (fun i -> i + 1)

let test_previous_version_refused () =
  let base = Mem.create () in
  let s = Snapshot.snapshot (build_state base [ Write32 (8, 77); Fork ]) in
  check_bool "re-framed current snapshot restores" true
    (not (is_error (Snapshot.restore ~base ~symdev:None
                      (with_version s Snapshot.snapshot_version))));
  check_bool "version 2 is an older snapshot layout" true
    (List.mem 2 (older_versions Snapshot.snapshot_version));
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "version-%d snapshot refused" v) true
        (is_error (Snapshot.restore ~base ~symdev:None (with_version s v))))
    (older_versions Snapshot.snapshot_version);
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "drv.ckpt" in
  let ck_cfg =
    { (quick_cfg (Corpus.find "audiopci")) with
      Config.checkpoint_every = 500; checkpoint_path = Some ckpt }
  in
  ignore (fresh_run ck_cfg);
  let data = In_channel.with_open_bin ckpt In_channel.input_all in
  check_bool "version 2 is an older checkpoint layout" true
    (List.mem 2 (older_versions Session.checkpoint_version));
  check_bool "version 3 is an older checkpoint layout" true
    (List.mem 3 (older_versions Session.checkpoint_version));
  check_bool "version 4 is an older checkpoint layout" true
    (List.mem 4 (older_versions Session.checkpoint_version));
  check_bool "version 5 is an older checkpoint layout" true
    (List.mem 5 (older_versions Session.checkpoint_version));
  check_bool "version 6 is an older checkpoint layout" true
    (List.mem 6 (older_versions Session.checkpoint_version));
  List.iter
    (fun v ->
      Out_channel.with_open_bin ckpt (fun oc ->
          Out_channel.output_string oc (with_version data v));
      check_bool (Printf.sprintf "version-%d checkpoint refused" v) true
        (is_error (Session.resume ck_cfg ~path:ckpt));
      check_bool (Printf.sprintf "version-%d checkpoint peek refused" v) true
        (is_error (Session.checkpoint_driver ckpt)))
    (older_versions Session.checkpoint_version)

(* Checkpoint writes hitting a full disk degrade to "no checkpoint",
   never to a failed or different run. *)
let test_checkpoint_disk_full_degrades () =
  let dir = tmpdir () in
  let ckpt = Filename.concat dir "drv.ckpt" in
  let e = Corpus.find "audiopci" in
  let oracle = Report_json.to_string (Report_json.of_result (fresh_run (quick_cfg e))) in
  let ck_cfg =
    { (quick_cfg e) with
      Config.checkpoint_every = 500; checkpoint_path = Some ckpt }
  in
  Blob.set_chaos_enospc 1_000_000;
  let r = fresh_run ck_cfg in
  Blob.set_chaos_enospc 0;
  check_bool "no checkpoint written" false (Sys.file_exists ckpt);
  check_bool "failed writes counted" true (r.Session.r_checkpoint_failures > 0);
  check_string "run unperturbed by failed checkpoints" oracle
    (Report_json.to_string (Report_json.of_result r))

let () =
  Random.self_init ();
  Alcotest.run "ddt_durable"
    [
      ( "blob",
        [ Alcotest.test_case "roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "corrupt every byte" `Quick
            test_blob_corrupt_every_byte;
          Alcotest.test_case "truncations" `Quick test_blob_truncations;
          Alcotest.test_case "atomic write + disk full" `Quick
            test_blob_atomic_write_and_enospc;
          Alcotest.test_case "read errors close the channel" `Quick
            test_blob_read_errors_close;
          Alcotest.test_case "concurrent writers converge" `Quick
            test_blob_concurrent_writers ] );
      ( "snapshot",
        [ qtest test_snapshot_roundtrip;
          Alcotest.test_case "variable counter" `Quick
            test_snapshot_var_counter;
          qtest test_snapshot_corrupt_fuzz;
          Alcotest.test_case "save/load file" `Quick test_snapshot_save_load ] );
      ( "report-json",
        [ Alcotest.test_case "atomic write_file" `Quick
            test_report_json_write_file ] );
      ( "checkpoint",
        [ Alcotest.test_case "kill-resume byte-identical" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "corrupt/foreign checkpoints refused" `Quick
            test_checkpoint_corrupt_resume_errors;
          Alcotest.test_case "previous-version blobs refused" `Quick
            test_previous_version_refused;
          Alcotest.test_case "disk-full degrades gracefully" `Quick
            test_checkpoint_disk_full_degrades ] );
    ]
