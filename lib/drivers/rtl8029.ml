let image = Prebuilt.image Dxe.rtl8029
let fixed_image = Prebuilt.image Dxe.rtl8029_fixed

let registry = [ ("MaximumMulticastList", 4); ("LookAhead", 64) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x10EC; device_id = 0x8029; revision = 0;
    bar_sizes = [ 0x1000 ]; irq_line = 9 }
