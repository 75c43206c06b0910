let image = Prebuilt.image Dxe.deeploop
let fixed_image = Prebuilt.image Dxe.deeploop_fixed

let registry = []

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x1D3D; device_id = 0x0001; revision = 0;
    bar_sizes = [ 0x1000 ]; irq_line = 9 }
