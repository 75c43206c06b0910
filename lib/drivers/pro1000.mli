(** The Intel Pro/1000-alike gigabit NIC driver — the largest binary of
    Table 1 (EEPROM access, PHY/MDIO management, descriptor rings, a wide
    OID surface). Carries its single Table 2 bug: a memory leak on a
    failed initialization path (the context block is forgotten when the
    receive ring allocation fails). *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
