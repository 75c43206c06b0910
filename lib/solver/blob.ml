(* Checksummed binary containers for everything the durability layer
   puts on disk: session checkpoints.

   The format is deliberately dumb — magic, format version, payload
   length, CRC-32, Marshal payload — because the safety property lives
   in the reader, not the writer: any truncation, bit-rot, version skew
   or malicious edit must surface as [Error _], never as an exception or
   (worse) a silently wrong value. Writers go through a tmp file and an
   atomic [rename], so a crash mid-write leaves either the old file or
   no file, never a torn one. *)

let magic = "DDTB"
let format_version = 1

(* Header layout (16 bytes, little-endian):
     0..3   magic "DDTB"
     4..7   format version
     8..11  payload length
     12..15 CRC-32 of the payload *)
let header_len = 16

(* Table-driven CRC-32 (IEEE 802.3 polynomial, reflected). Hand-rolled:
   the container must not depend on zlib being present. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let put_u32 b off v =
  Bytes.set_uint8 b off (v land 0xFF);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xFF);
  Bytes.set_uint8 b (off + 2) ((v lsr 16) land 0xFF);
  Bytes.set_uint8 b (off + 3) ((v lsr 24) land 0xFF)

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* Disk-full test hook: when set, the next [count] payload writes raise
   ENOSPC after the tmp file is created — the injection the durability
   tests use to prove a full disk only costs durability, never
   correctness. *)
let chaos_enospc = Atomic.make 0

let set_chaos_enospc n = Atomic.set chaos_enospc (max 0 n)

let chaos_should_fail () =
  let rec claim () =
    let n = Atomic.get chaos_enospc in
    if n <= 0 then false
    else if Atomic.compare_and_set chaos_enospc n (n - 1) then true
    else claim ()
  in
  claim ()

let encode ?(closures = false) v =
  let flags = if closures then [ Marshal.Closures ] else [] in
  let payload = Marshal.to_string v flags in
  let hdr = Bytes.create header_len in
  Bytes.blit_string magic 0 hdr 0 4;
  put_u32 hdr 4 format_version;
  put_u32 hdr 8 (String.length payload);
  put_u32 hdr 12 (crc32 payload);
  Bytes.to_string hdr ^ payload

let decode s =
  let fail msg = Error msg in
  if String.length s < header_len then fail "short header"
  else if String.sub s 0 4 <> magic then fail "bad magic"
  else
    let ver = get_u32 s 4 in
    if ver <> format_version then
      fail (Printf.sprintf "format version %d (want %d)" ver format_version)
    else
      let len = get_u32 s 8 in
      if len < 0 || String.length s - header_len <> len then
        fail "truncated payload"
      else
        let payload = String.sub s header_len len in
        let crc = get_u32 s 12 in
        if crc32 payload <> crc then fail "CRC mismatch"
        else
          (* CRC passed but the payload could still be a forged or
             version-skewed Marshal image; absorb every decode failure
             (including Marshal's own code-checksum check for closure
             blobs from a different binary). *)
          match Marshal.from_string payload 0 with
          | v -> Ok v
          | exception _ -> fail "undecodable payload"

(* Unique tmp names: two processes (or domains) writing the same target
   concurrently must never share a tmp file, or interleaved writes could
   get renamed into place as a torn blob. The rename itself stays atomic;
   concurrent writers of identical content converge by last-writer-wins. *)
let tmp_seq = Atomic.make 0

let write_file path v =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  match
    let data = encode v in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
        tmp
    in
    (try
       if chaos_should_fail () then begin
         close_out_noerr oc;
         raise (Sys_error (tmp ^ ": No space left on device (chaos)"))
       end;
       output_string oc data;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with _ -> ());
       raise e);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception e ->
      (try Sys.remove tmp with _ -> ());
      Error (Printexc.to_string e)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception e -> Error (Printexc.to_string e)
