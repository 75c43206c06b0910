let image = Prebuilt.image Dxe.usbnic
let fixed_image = Prebuilt.image Dxe.usbnic_fixed

let registry = []
