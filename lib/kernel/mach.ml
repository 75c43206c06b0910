type t = {
  arg : int -> int;
  arg_expr : int -> Ddt_solver.Expr.t;
  set_ret : int -> unit;
  get_ret : unit -> int;
  set_ret_expr : Ddt_solver.Expr.t -> unit;
  read_u32 : int -> int;
  write_u32 : int -> int -> unit;
  read_u8 : int -> int;
  write_u8 : int -> int -> unit;
  read_expr_u32 : int -> Ddt_solver.Expr.t;
  write_expr_u32 : int -> Ddt_solver.Expr.t -> unit;
  read_expr_u8 : int -> Ddt_solver.Expr.t;
  write_expr_u8 : int -> Ddt_solver.Expr.t -> unit;
  fresh_symbolic : string -> Ddt_solver.Expr.width -> Ddt_solver.Expr.t;
  assume : Ddt_solver.Expr.t -> unit;
  fork : (string * (t -> unit)) list -> unit;
  discard : string -> unit;
  kstate : unit -> Kstate.t;
}

exception Path_terminated of string

let read_cstring m addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i < 256 then
      let c = m.read_u8 (addr + i) in
      if c <> 0 then begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf
