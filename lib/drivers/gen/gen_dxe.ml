(* Compiles every corpus variant with the Mini-C compiler and prints an
   OCaml module holding each DXE image as a string literal, so that the
   drivers ship as binaries and no test session runs the compiler. *)

let ident name = String.map (function '-' -> '_' | c -> c) name

let () =
  print_string
    "(* Generated by gen/gen_dxe.exe from the sources in src/: the DXE \
     image of\n   every corpus variant. Do not edit. *)\n";
  List.iter
    (fun (name, source) ->
      let img = Ddt_minicc.Codegen.compile ~name source in
      let dxe = Ddt_dvm.Image.to_bytes img in
      Printf.printf "\nlet %s =\n  %S\n" (ident name) (Bytes.to_string dxe))
    Ddt_driver_sources.Variants.all;
  Printf.printf "\nlet all =\n  [ %s ]\n"
    (String.concat ";\n    "
       (List.map
          (fun (name, _) -> Printf.sprintf "(%S, %s)" name (ident name))
          Ddt_driver_sources.Variants.all))
