let image = Prebuilt.image Dxe.pro1000
let fixed_image = Prebuilt.image Dxe.pro1000_fixed

let registry = [ ("JumboMtu", 1500); ("PhyAddress", 1) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x8086; device_id = 0x100E; revision = 2;
    bar_sizes = [ 0x4000 ]; irq_line = 11 }
