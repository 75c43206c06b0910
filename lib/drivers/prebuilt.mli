(** Image thunks over the DXE bytes the build compiled into {!Dxe}. *)

val image : string -> unit -> Ddt_dvm.Image.t
(** [image dxe] decodes [dxe] on its first call and returns that same
    physical image on every later call, so per-image memos such as
    [Image.code_array] keep hitting. *)
