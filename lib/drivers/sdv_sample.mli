(** Drivers for the §5.1 baseline comparisons against the SDV-style
    static analyzer.

    - {!image}: the "SDV sample driver" — eight seeded API-rule defects
      (double acquire, release-without-acquire, forgotten release,
      wrong-variant release, passive-only call under a spinlock,
      out-of-order release, configuration-handle leak, double free),
      reachable through a symbolic OID sweep.
    - {!fixed_image}: the same driver with every defect repaired.
    - {!synthetic_images}: five one-bug variants for the synthetic-bug
      experiment (deadlock, out-of-order release, extra release, forgotten
      release, kernel call at wrong IRQL). The first three hide the defect
      behind helper-function boundaries, which defeats the intraprocedural
      static baseline but not DDT; the last one also contains a correct
      conditional acquire/release pattern that path-insensitive analysis
      misreports (the baseline's false positive). *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t

val synthetic_images : unit -> (string * Ddt_dvm.Image.t) list
(** [(name, image)]: deadlock, out_of_order, extra_release,
    forgotten_release, wrong_irql. *)

val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
