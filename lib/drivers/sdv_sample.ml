let image = Prebuilt.image Dxe.sdv_sample
let fixed_image = Prebuilt.image Dxe.sdv_sample_fixed

let synthetics =
  [ ("deadlock", Prebuilt.image Dxe.synthetic_deadlock);
    ("out_of_order", Prebuilt.image Dxe.synthetic_out_of_order);
    ("extra_release", Prebuilt.image Dxe.synthetic_extra_release);
    ("forgotten_release", Prebuilt.image Dxe.synthetic_forgotten_release);
    ("wrong_irql", Prebuilt.image Dxe.synthetic_wrong_irql) ]

let synthetic_images () = List.map (fun (n, image) -> (n, image ())) synthetics

let registry = []

let descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x1414; device_id = 0x0001; revision = 1;
    bar_sizes = [ 0x1000 ]; irq_line = 12 }
