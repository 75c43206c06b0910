(** The mini-NDIS kernel API — the network-driver half of the
    kernel/driver interface.

    ABI: every argument is one 32-bit word on the stack (arg 0 at [sp]);
    results return in [r0]. Status codes: 0 SUCCESS, 1 FAILURE,
    2 RESOURCES, 3 PENDING, 4 NOT_SUPPORTED.

    Miniport characteristics block passed to [NdisMRegisterMiniport]
    (eight words): Initialize, QueryInformation, SetInformation, Send,
    ISR, HandleInterrupt (DPC), Halt, Reset handlers.

    APIs restricted to PASSIVE_LEVEL crash with
    [IRQL_NOT_LESS_OR_EQUAL] when invoked at or above DISPATCH_LEVEL,
    like the real kernel: the configuration APIs, [NdisMMapIoSpace], and
    paged-pool allocation. *)

val status_success : int
val status_failure : int

(** Characteristics-block word offsets, in registration order. *)
val entry_point_names : string list
(** ["initialize"; "query"; "set"; "send"; "isr"; "dpc"; "halt"; "reset"] *)

val install : unit -> unit
(** Register all NDIS API implementations with {!Kapi}. Idempotent. *)
