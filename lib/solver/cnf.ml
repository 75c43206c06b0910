type t = {
  mutable next_var : int;
  mutable cls : int array list;
}

let lit_true = 1
let lit_false = -1

let add_clause t lits = t.cls <- Array.of_list lits :: t.cls

let create () =
  let t = { next_var = 1; cls = [] } in
  add_clause t [ lit_true ];
  t

let fresh t =
  t.next_var <- t.next_var + 1;
  t.next_var

let num_vars t = t.next_var
let clauses t = List.rev t.cls

let g_and t a b =
  if a = lit_false || b = lit_false then lit_false
  else if a = lit_true then b
  else if b = lit_true then a
  else if a = b then a
  else if a = -b then lit_false
  else begin
    let o = fresh t in
    add_clause t [ -o; a ];
    add_clause t [ -o; b ];
    add_clause t [ o; -a; -b ];
    o
  end

let g_or t a b = -g_and t (-a) (-b)

let g_xor t a b =
  if a = lit_false then b
  else if b = lit_false then a
  else if a = lit_true then -b
  else if b = lit_true then -a
  else if a = b then lit_false
  else if a = -b then lit_true
  else begin
    let o = fresh t in
    add_clause t [ -o; a; b ];
    add_clause t [ -o; -a; -b ];
    add_clause t [ o; -a; b ];
    add_clause t [ o; a; -b ];
    o
  end

let g_ite t c a b =
  if c = lit_true then a
  else if c = lit_false then b
  else if a = b then a
  else begin
    let o = fresh t in
    add_clause t [ -o; -c; a ];
    add_clause t [ -o; c; b ];
    add_clause t [ o; -c; -a ];
    add_clause t [ o; c; -b ];
    o
  end

let g_maj t a b c =
  let ab = g_and t a b in
  let ac = g_and t a c in
  let bc = g_and t b c in
  g_or t ab (g_or t ac bc)

let assert_lit t l = add_clause t [ l ]
let assert_implies t a b = add_clause t [ -a; b ]
