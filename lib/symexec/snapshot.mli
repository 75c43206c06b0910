(** Durable single-state snapshots.

    Serializes one symbolic execution state — registers, copy-on-write
    memory chain, path condition, replay pins, kernel context, pending
    interrupt continuations, merge tags — to the versioned, checksummed
    {!Ddt_solver.Blob} format, together with the global
    symbolic-variable counter (restore keeps minting above every id the
    snapshot uses). The reader is total — truncated or corrupted
    snapshots come back as [Error _], never exceptions. *)

val snapshot_version : int

val snapshot : Symstate.t -> string
(** The state as checksummed binary. Non-destructive. *)

val restore :
  base:Ddt_dvm.Mem.t ->
  symdev:Ddt_hw.Symdev.t option ->
  string ->
  (Symstate.t, string) result
(** Rebuild a state over the session's base image and device. Bumps the
    global variable counter to at least the snapshot's. The state comes
    back with a no-op sym-read hook (the engine reinstalls its own). *)

val save : string -> Symstate.t -> (unit, string) result
(** [save path st]: {!snapshot} written atomically (tmp + rename). *)

val load :
  base:Ddt_dvm.Mem.t ->
  symdev:Ddt_hw.Symdev.t option ->
  string ->
  (Symstate.t, string) result
