let image = Prebuilt.image Dxe.pcnet
let fixed_image = Prebuilt.image Dxe.pcnet_fixed

let registry = [ ("FullDuplex", 1) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x1022; device_id = 0x2000; revision = 3;
    bar_sizes = [ 0x1000 ]; irq_line = 10 }
