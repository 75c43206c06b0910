(** Symbolic memory with copy-on-write sharing (§4.1.3 of the paper).

    A memory is a persistent map from 64-byte page numbers to pages of
    byte expressions, layered over the session's concrete base image.
    Every page records the copy-on-write node that owns it. A write goes
    into the page in place when the memory's current leaf node owns it;
    otherwise the page is copied first and the copy, owned by the leaf,
    replaces it in this memory's map. Forking gives both sides fresh
    leaves over the shared map, so a fork costs O(1) whatever the state's
    footprint, and each side pays one page copy per page it later writes.

    A read is a map lookup plus an array read. A slot never written on
    this path falls through to the base image, uncached: base RAM is
    written only while the session is set up (image load, device
    mapping), before the first memory is created, and never afterwards.
    In concrete-hardware runs the device is mapped into the base; a read
    of it is pinned in the path's page on first access, so the path sees
    a stable register value.

    {b Write marks.} Each page carries a 64-bit mask of the slots its
    owner wrote. Only a write by the owner while the owner is the leaf
    sets a bit — and every write is one, since a write first makes the
    leaf own the page; a copy starts unmarked, and a register pin copies
    without marking. Each node keeps the pages it copied and the number
    of bits it set, so the node chain is the write log: {!cow_diff}
    enumerates the marks of the nodes above the common ancestor,
    {!live_words} sums the counts and {!chain_depth} is the chain length.

    {b Word path.} {!read_u32} and {!write_u32} serve a word with one
    page lookup (a read) or one ownership check or copy (a write) when
    its four bytes lie in one page — which also keeps them below the
    0xFFFFFFFF wrap — and none is a device register
    ({!Ddt_hw.Symdev.overlaps_device}). A page-straddling, wrapping or
    device-overlapping word goes byte by byte, with the same result.

    Reads from the symbolic device's MMIO ranges return a fresh
    unconstrained symbolic byte on every access; writes there are
    discarded (fully symbolic hardware, §3.3). *)

type t

val create :
  base:Ddt_dvm.Mem.t -> symdev:Ddt_hw.Symdev.t option -> t

val fork : t -> t
(** Returns a child; the original also moves to a fresh leaf so neither
    side can see the other's subsequent writes. *)

val set_sym_read_hook : t -> (string -> Ddt_solver.Expr.var -> unit) -> unit
(** Called whenever an MMIO read mints a fresh symbolic byte. *)

val read_u8 : t -> int -> Ddt_solver.Expr.t
val write_u8 : t -> int -> Ddt_solver.Expr.t -> unit
val read_u32 : t -> int -> Ddt_solver.Expr.t
val write_u32 : t -> int -> Ddt_solver.Expr.t -> unit

val cow_diff : t -> t -> int list option
(** Addresses at which two sibling memories can disagree: the union of
    addresses either side wrote since their common copy-on-write
    ancestor (found by physical node identity), sorted. [None] when the
    memories share no ancestor — the caller must not merge them. MMIO
    writes are discarded at the write barrier, so the diff is pure RAM. *)

val chain_depth : t -> int
(** Length of the copy-on-write chain (for statistics/benchmarks). O(1). *)

val live_words : t -> int
(** Total write-log entries across this leaf's chain (memory
    accounting, E5): each node's distinct written addresses (its marked
    slots), summed. A byte written again by the same node counts once.
    O(1). *)
