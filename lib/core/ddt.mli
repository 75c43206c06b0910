(** DDT — testing closed-source binary device drivers.

    The top-level facade: give it a driver binary (a DXE image) and a
    device class, get back a bug report with replayable traces.

    {[
      let dxe = In_channel.with_open_bin "mydrv.dxe" In_channel.input_all in
      let image = Ddt_dvm.Image.of_bytes (Bytes.of_string dxe) in
      let cfg =
        Ddt_core.Config.make ~driver_name:"mydrv" ~image
          ~driver_class:Ddt_core.Config.Network ()
      in
      let result = Ddt_core.Ddt.test_driver cfg in
      Format.printf "%a" Ddt_core.Ddt.pp_report result
    ]} *)

val test_driver : Config.t -> Session.result
(** Run a complete testing session. *)

val pp_report : Format.formatter -> Session.result -> unit
(** Human-readable report: the bug table plus coverage and statistics. *)

val pp_bug_detail : Format.formatter -> Ddt_checkers.Report.bug -> unit
(** One bug with its trace digest — the §3.5 evidence. *)
