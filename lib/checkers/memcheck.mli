(** VM-level memory access verification (§3.1.1 of the paper).

    On every driver memory access, verifies the driver has the right to
    touch that address. Permitted targets:

    - dynamically allocated memory and buffers granted by the kernel;
    - the driver image's own data/bss (and reads of its text);
    - the current stack {e at or above} the stack pointer — accesses below
      [sp] are prohibited because an interrupt handler may overwrite them
      (the paper calls this rule out explicitly);
    - hardware MMIO ranges of the assigned device.

    Beyond the concrete address, the checker bounds the {e symbolic}
    address expression with interval reasoning over the path condition:
    if the feasible range escapes every granted region the access is
    reported even though the concretized address happened to be in
    bounds — this is how the unchecked [MaximumMulticastList] registry
    parameter of the RTL8029 driver is caught. *)

val on_mem_access :
  Report.sink -> loaded:Ddt_dvm.Image.loaded -> symdev:Ddt_hw.Symdev.t ->
  Ddt_symexec.Exec.mem_access -> unit
(** [on_mem_access sink ~loaded ~symdev] checks one access against the
    driver image [loaded] and the device [symdev]. *)
