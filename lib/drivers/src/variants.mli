(** Every image the corpus ships, as [(image name, Mini-C source)] pairs.
    The image name is the one compiled into the DXE header; lowercased
    with [-] read as [_], it is also the OCaml name of the variant's
    bytes in the generated [Ddt_drivers.Dxe] module. *)

val all : (string * string) list
