module Expr = Ddt_solver.Expr

type t =
  | E_branch of { pc : int; taken : bool; forked : bool; cond : Expr.t }
  | E_sym_create of { name : string; origin : string; var : Expr.var }
  | E_concretize of { pc : int; expr : Expr.t; value : int; reason : string }
  | E_kcall of { pc : int; name : string }
  | E_kcall_ret of { name : string }
  | E_entry of { name : string; addr : int }
  | E_entry_ret of { name : string; ret : int }
  | E_interrupt of { site : string; phase : string }
  | E_choice of { label : string; choice : string }
  | E_merge of { pc : int; absorbed : int; cond : Expr.t }
      (** recorded on the surviving state when a sibling was fused into
          it at merge point [pc]; [cond] is the absorbed path's guard
          (the [ite] condition selecting its values) *)

let pp fmt = function
  | E_branch { pc; taken; forked; cond } ->
      Format.fprintf fmt "branch 0x%x taken=%b forked=%b cond=%a" pc taken
        forked Expr.pp cond
  | E_sym_create { name; origin; var } ->
      Format.fprintf fmt "symbolic %s (%s) as %a" name origin Expr.pp_var var
  | E_concretize { pc; expr; value; reason } ->
      Format.fprintf fmt "concretize 0x%x %a := 0x%x (%s)" pc Expr.pp expr
        value reason
  | E_kcall { pc; name } -> Format.fprintf fmt "kcall 0x%x %s" pc name
  | E_kcall_ret { name } -> Format.fprintf fmt "kcall-ret %s" name
  | E_entry { name; addr } -> Format.fprintf fmt "entry %s @ 0x%x" name addr
  | E_entry_ret { name; ret } ->
      Format.fprintf fmt "entry-ret %s = 0x%x" name ret
  | E_interrupt { site; phase } ->
      Format.fprintf fmt "interrupt at %s phase=%s" site phase
  | E_choice { label; choice } ->
      Format.fprintf fmt "choice %s -> %s" label choice
  | E_merge { pc; absorbed; cond } ->
      Format.fprintf fmt "merge 0x%x absorbed state %d under %a" pc absorbed
        Expr.pp cond

let to_string e = Format.asprintf "%a" pp e

let summarize ~mem_accesses events =
  let branches = ref 0 and forks = ref 0 in
  let syms = ref 0 and kcalls = ref 0 and irqs = ref 0 in
  List.iter
    (function
      | E_branch { forked; _ } ->
          incr branches;
          if forked then incr forks
      | E_sym_create _ -> incr syms
      | E_kcall _ -> incr kcalls
      | E_interrupt _ -> incr irqs
      | _ -> ())
    events;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d memory accesses, %d branches (%d forked), %d symbolic values, \
        %d kernel calls, %d interrupts\n"
       mem_accesses !branches !forks !syms !kcalls !irqs);
  Buffer.add_string buf "last events:\n";
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  List.iter
    (fun e -> Buffer.add_string buf ("  " ^ to_string e ^ "\n"))
    (List.rev (take 12 events));
  Buffer.contents buf
