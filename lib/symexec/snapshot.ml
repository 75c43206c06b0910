(* Durable single-state snapshots (the serialization leg of §3.5's
   "each execution state is a complete snapshot of the system").

   A snapshot is a {!Ddt_solver.Blob} whose payload is the state's
   marshal-safe projection ({!Symstate.image}) plus the global
   symbolic-variable counter — restoring on a fresh process must keep
   minting variable ids above every id the snapshotted path condition
   already uses, or fresh reads would collide with pinned ones. *)

module Blob = Ddt_solver.Blob
module Expr = Ddt_solver.Expr
module St = Symstate

let snapshot_version = 3

type payload = {
  sn_version : int;
  sn_state : St.image;
  sn_var_counter : int;
}

let snapshot st =
  Blob.encode
    {
      sn_version = snapshot_version;
      sn_state = St.to_image st;
      sn_var_counter = Expr.var_counter_value ();
    }

let of_payload ~base ~symdev p =
  if p.sn_version <> snapshot_version then
    Error
      (Printf.sprintf "snapshot version %d, expected %d" p.sn_version
         snapshot_version)
  else begin
    (* Never lower the counter: the restoring process may already have
       minted variables of its own. *)
    Expr.set_var_counter
      (max (Expr.var_counter_value ()) p.sn_var_counter);
    Ok (St.of_image ~base ~symdev p.sn_state)
  end

let restore ~base ~symdev s =
  match Blob.decode s with
  | Error _ as e -> e
  | Ok (p : payload) -> of_payload ~base ~symdev p

let save path st =
  Blob.write_file path
    {
      sn_version = snapshot_version;
      sn_state = St.to_image st;
      sn_var_counter = Expr.var_counter_value ();
    }

let load ~base ~symdev path =
  match Blob.read_file path with
  | Error _ as e -> e
  | Ok (p : payload) -> of_payload ~base ~symdev p
