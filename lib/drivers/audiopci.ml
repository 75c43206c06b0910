let image = Prebuilt.image Dxe.audiopci
let fixed_image = Prebuilt.image Dxe.audiopci_fixed

let registry = [ ("SampleRate", 44100) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x1274; device_id = 0x5000; revision = 1;
    bar_sizes = [ 0x1000 ]; irq_line = 7 }
