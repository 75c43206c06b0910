(* On-disk content-addressed store for query-cache entries and Unsat
   cores, so runs warm-start each other: the second run of a driver
   finds the first run's verdicts on disk and turns its bit-blasts into
   cache hits.

   Layout: one {!Blob} file per entry under
   [<dir>/<key>.v<version>/<hex-digest>.qe], where the digest is over
   the entry's renamed canonical key — the same query stored by any run
   lands on the same filename, so concurrent or repeated runs dedup by
   construction and a half-written entry is impossible (tmp + rename).
   The version and the caller's key (driver name) live in the directory
   name: bumping either simply orphans the old directory, which is the
   whole invalidation story.

   Concurrent access: writers never collide (unique tmp names + atomic
   rename; same digest means same content, so last-writer-wins is
   convergent), and a reader racing a writer sees either no file or a
   complete file. A file that vanishes between [readdir] and [open]
   (rename raced by another process's in-progress write on some
   filesystems, or manual cleanup) is skipped and counted, never an
   error.

   Failure policy, in one line: the store can only ever change cost,
   never a verdict. A corrupt or truncated entry is skipped (counted in
   [skipped]); a failed write — disk full included — disables further
   writes for this store and the run continues unpersisted. *)

(* Bump when entry semantics change (solver rewrites, canonicalization,
   verdict encoding): old entries become unreachable, not wrong. *)
let store_version = 1

type t = {
  dir : string;                 (* the fully-scoped entry directory *)
  mutable writable : bool;      (* cleared after the first failed write *)
  mutable loaded : int;
  mutable written : int;
  mutable skipped : int;        (* unreadable/corrupt/refused entries *)
}

let scrub_key key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    key

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store ~dir ~key =
  let scoped =
    Filename.concat dir (Printf.sprintf "%s.v%d" (scrub_key key) store_version)
  in
  match mkdir_p scoped with
  | () -> Ok { dir = scoped; writable = true; loaded = 0; written = 0;
               skipped = 0 }
  | exception e -> Error (Printexc.to_string e)

let dir t = t.dir
let loaded t = t.loaded
let written t = t.written
let skipped t = t.skipped
let writable t = t.writable

let entry_path t (pe : Qcache.pentry) =
  (* Address by the renamed key alone: for a deterministic engine the
     verdict is a function of the key, so the first writer wins and
     every later run skips the write. *)
  let digest = Digest.to_hex (Digest.string (Marshal.to_string pe.pe_key [])) in
  Filename.concat t.dir (digest ^ ".qe")

(* Load every readable entry into the shared cache (warm start).
   Filenames are sorted so the insertion order (hence each shard's LRU
   ticks) is the same on every host. Returns the number of entries
   imported. *)
let load t cache =
  let files =
    match Sys.readdir t.dir with
    | files ->
        Array.sort compare files;
        Array.to_list files
    | exception _ -> []
  in
  List.iter
    (fun f ->
      if Filename.check_suffix f ".qe" then
        match Blob.read_file (Filename.concat t.dir f) with
        | Error _ -> t.skipped <- t.skipped + 1
        | Ok (pe : Qcache.pentry) ->
            if Qcache.Sharded.import_pentry cache pe then
              t.loaded <- t.loaded + 1
            else t.skipped <- t.skipped + 1)
    files;
  t.loaded

(* Persist every entry born in this process. Stops writing (and marks
   the store read-only) after the first failure so a full disk costs one
   syscall error, not one per entry. Returns entries newly written. *)
let save t cache =
  let before = t.written in
  let entries = Qcache.Sharded.export_entries cache in
  List.iter
    (fun pe ->
      if t.writable then begin
        let path = entry_path t pe in
        if not (Sys.file_exists path) then
          match Blob.write_file path pe with
          | Ok () -> t.written <- t.written + 1
          | Error _ -> t.writable <- false
      end)
    entries;
  t.written - before
