let image dxe =
  let img = lazy (Ddt_dvm.Image.of_bytes (Bytes.of_string dxe)) in
  fun () -> Lazy.force img
