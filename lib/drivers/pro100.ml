let image = Prebuilt.image Dxe.pro100
let fixed_image = Prebuilt.image Dxe.pro100_fixed

let registry = [ ("Promiscuous", 0) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x8086; device_id = 0x1229; revision = 8;
    bar_sizes = [ 0x1000; 0x20 ]; irq_line = 5 }
