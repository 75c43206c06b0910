let all =
  [ ("pro1000", Pro1000.source);
    ("pro1000-fixed", Pro1000.fixed_source);
    ("pro100", Pro100.source);
    ("pro100-fixed", Pro100.fixed_source);
    ("ac97", Ac97.source);
    ("ac97-fixed", Ac97.fixed_source);
    ("audiopci", Audiopci.source);
    ("audiopci-fixed", Audiopci.fixed_source);
    ("pcnet", Pcnet.source);
    ("pcnet-fixed", Pcnet.fixed_source);
    ("rtl8029", Rtl8029.source);
    ("rtl8029-fixed", Rtl8029.fixed_source);
    ("deeploop", Deeploop.source);
    ("deeploop-fixed", Deeploop.fixed_source);
    ("usbnic", Usb_nic.source);
    ("usbnic-fixed", Usb_nic.fixed_source);
    ("sdv_sample", Sdv_sample.source);
    ("sdv_sample-fixed", Sdv_sample.fixed_source);
    ("synthetic-deadlock", Sdv_sample.synthetic_deadlock);
    ("synthetic-out-of-order", Sdv_sample.synthetic_out_of_order);
    ("synthetic-extra-release", Sdv_sample.synthetic_extra_release);
    ("synthetic-forgotten-release", Sdv_sample.synthetic_forgotten_release);
    ("synthetic-wrong-irql", Sdv_sample.synthetic_wrong_irql) ]
