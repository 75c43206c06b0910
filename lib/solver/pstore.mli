(** On-disk content-addressed store for query-cache entries.

    One {!Blob} file per entry, addressed by the digest of its renamed
    canonical key, under a directory whose name carries the caller's key
    (driver name) and the store format version — version bumps orphan
    old entries rather than misread them. Writes are atomic; reads are
    total. A bad store can only cost solve time, never change a verdict:
    corrupt entries are skipped, Sat models are re-verified at import,
    and a failed write (e.g. disk full) makes the store silently
    read-only for the rest of the run.

    Safe under concurrent multi-process access: writers use unique tmp
    files + atomic rename (same digest means same content, so racing
    writers converge), readers racing writers see either no file or a
    complete file, and a file that vanishes mid-scan is skipped and
    counted. *)

type t

val store_version : int

val open_store : dir:string -> key:string -> (t, string) result
(** Create or open the scoped entry directory [dir/<key>.v<version>]. *)

val load : t -> Qcache.Sharded.sharded -> int
(** Import every readable entry into the cache (deterministic filename
    order); returns how many were imported. Unreadable or refused
    entries are counted in {!skipped}. *)

val save : t -> Qcache.Sharded.sharded -> int
(** Write every entry born in this process that is not already on disk;
    returns how many files were newly written. *)

val dir : t -> string
val loaded : t -> int
val written : t -> int
val skipped : t -> int
val writable : t -> bool
