(** Checksummed binary containers for on-disk durability artifacts.

    Every file the durability layer writes — a session checkpoint — is a
    [Blob]: a small header (magic, format version,
    payload length, CRC-32) followed by a [Marshal] payload, written via
    tmp file + atomic rename. The reader is total: truncation,
    corruption, version skew and unreadable files all come back as
    [Error _], never exceptions. *)

val format_version : int

val crc32 : string -> int
(** IEEE CRC-32 of a string (table-driven; no external dependency). *)

val encode : ?closures:bool -> 'a -> string
(** Marshal [v] and frame it with the header. [closures] additionally
    permits function values; such blobs are only readable by the exact
    same binary (Marshal's code checksum enforces this at [decode]). *)

val decode : string -> ('a, string) result
(** Inverse of {!encode}. Any malformed input yields [Error reason]. *)

val write_file : string -> 'a -> (unit, string) result
(** [write_file path v] encodes [v] and writes it atomically (tmp +
    rename). On any failure — including injected disk-full — the tmp
    file is removed and the previous [path] contents, if any, are left
    intact. *)

val read_file : string -> ('a, string) result
(** Read and {!decode} a blob file. Missing or unreadable files are
    [Error _]. The ['a] is trusted to match the writer's type, as with
    [Marshal]; wrap per-format sanity checks around the result. *)

val set_chaos_enospc : int -> unit
(** Disk-full test hook: make the next [n] {!write_file} calls fail as
    if the disk were full (after creating the tmp file). 0 disables. *)
