let image dxe =
  let memo = Atomic.make None in
  fun () ->
    match Atomic.get memo with
    | Some img -> img
    | None ->
        let img = Ddt_dvm.Image.of_bytes (Bytes.of_string dxe) in
        if Atomic.compare_and_set memo None (Some img) then img
        else Option.get (Atomic.get memo)
