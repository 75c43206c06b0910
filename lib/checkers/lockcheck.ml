module Kstate = Ddt_kernel.Kstate
module Mach = Ddt_kernel.Mach
module St = Ddt_symexec.Symstate

let bug sink (st : St.t) ~key ~msg =
  let driver = Report.driver sink in
  let key = Printf.sprintf "lock:%s:%s" driver key in
  Report.report sink ~key (fun () ->
      Report.of_state st ~kind:Report.Lock_misuse ~driver ~key
        ~pc:st.St.pc msg)

let acquire_names = [ "NdisAcquireSpinLock"; "KeAcquireSpinLock" ]
let acquire_dpr_names =
  [ "NdisDprAcquireSpinLock"; "KeAcquireSpinLockAtDpcLevel" ]
let release_names = [ "NdisReleaseSpinLock"; "KeReleaseSpinLock" ]
let release_dpr_names =
  [ "NdisDprReleaseSpinLock"; "KeReleaseSpinLockFromDpcLevel" ]

let on_kcall_enter sink (st : St.t) name (m : Mach.t) =
  let ks = st.St.ks in
  let is_acquire = List.mem name acquire_names in
  let is_acquire_dpr = List.mem name acquire_dpr_names in
  let is_release = List.mem name release_names in
  let is_release_dpr = List.mem name release_dpr_names in
  if is_acquire || is_acquire_dpr || is_release || is_release_dpr then begin
    let lock_addr = m.Mach.arg 0 in
    if is_acquire || is_acquire_dpr then begin
      if is_acquire_dpr && Kstate.irql ks < Kstate.dispatch_level then
        bug sink st
          ~key:(Printf.sprintf "dpracq:0x%x" lock_addr)
          ~msg:
            (Printf.sprintf
               "%s called below DISPATCH_LEVEL (IRQL %d); the Dpr variants \
                are only legal from DPC context"
               name (Kstate.irql ks))
    end
    else begin
      (* Releases. *)
      (match Kstate.lock_at ks lock_addr with
       | Some { Kstate.l_held = true; l_dpr; l_seq; _ } ->
           if is_release && Kstate.in_dpc ks then
             bug sink st
               ~key:(Printf.sprintf "wrongrel:0x%x" lock_addr)
               ~msg:
                 (Printf.sprintf
                    "%s called from a DPC for spinlock 0x%x; this restores a \
                     stale IRQL and can hang or crash the kernel (use the \
                     Dpr variant)"
                    name lock_addr)
           else if is_release_dpr && not l_dpr then
             bug sink st
               ~key:(Printf.sprintf "wrongreldpr:0x%x" lock_addr)
               ~msg:
                 (Printf.sprintf
                    "%s releases spinlock 0x%x that was acquired with the \
                     IRQL-raising variant; the saved IRQL is never restored"
                    name lock_addr);
           (* LIFO order: some other held lock was acquired later. *)
           let newer =
             List.filter
               (fun (a, l) -> a <> lock_addr && l.Kstate.l_seq > l_seq)
               (Kstate.held_locks ks)
           in
           (match newer with
            | (other, _) :: _ ->
                bug sink st
                  ~key:(Printf.sprintf "order:0x%x" lock_addr)
                  ~msg:
                    (Printf.sprintf
                       "out-of-order release: spinlock 0x%x released while \
                        more recently acquired spinlock 0x%x is still held"
                       lock_addr other)
            | [] -> ())
       | _ ->
           (* Releasing a lock that is not held bugchecks in the kernel
              (SPIN_LOCK_NOT_OWNED), and the crash checker reports it. *)
           ())
    end
  end

let on_state_done sink (st : St.t) =
  match st.St.status with
  | Some (St.Returned _) ->
      let held = Kstate.held_locks st.St.ks in
      if held <> [] then
        bug sink st
          ~key:
            (Printf.sprintf "heldexit:%s:%d" st.St.entry_name
               (List.length held))
          ~msg:
            (Printf.sprintf
               "entry point %s returned with %d spinlock(s) still held (%s)"
               st.St.entry_name (List.length held)
               (String.concat ", "
                  (List.map (fun (a, _) -> Printf.sprintf "0x%x" a) held)))
  | _ -> ()
