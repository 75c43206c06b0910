let image = Prebuilt.image Dxe.ac97
let fixed_image = Prebuilt.image Dxe.ac97_fixed

let registry = [ ("DefaultVolume", 0x0808) ]

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x8086; device_id = 0x2415; revision = 1;
    bar_sizes = [ 0x400; 0x100 ]; irq_line = 3 }
