type call = { call_addr : int; call_args : int list }

let isr_ctx ks =
  match Kstate.entry_point ks "isr_ctx" with
  | Some ctx -> ctx
  | None -> Kstate.driver_ctx ks

let begin_isr ks =
  if not (Kstate.isr_registered ks) then None
  else
    match Kstate.entry_point ks "isr" with
    | None -> None
    | Some addr ->
        let saved = Kstate.irql ks in
        Kstate.set_irql ks Kstate.device_level;
        Kstate.set_in_isr ks true;
        Some ({ call_addr = addr; call_args = [ isr_ctx ks ] }, saved)

let after_isr ks ~saved_irql ~isr_ret =
  Kstate.set_in_isr ks false;
  (* A DPC cannot preempt code already running at or above DISPATCH_LEVEL;
     it would be queued and run when the IRQL drops. We model that by
     deferring (dropping) it — DPC coverage comes from interrupts injected
     at PASSIVE_LEVEL boundaries. *)
  if isr_ret land 2 <> 0 && saved_irql < Kstate.dispatch_level then
    match Kstate.entry_point ks "dpc" with
    | Some addr ->
        Kstate.set_irql ks Kstate.dispatch_level;
        Kstate.set_in_dpc ks true;
        Some { call_addr = addr; call_args = [ Kstate.driver_ctx ks ] }
    | None -> None
  else None

let finish ks ~saved_irql =
  Kstate.set_in_dpc ks false;
  Kstate.set_irql ks saved_irql

let begin_timer ks addr =
  match Kstate.timer_at ks addr with
  | None -> None
  | Some tm when not tm.Kstate.t_armed -> None
  | Some tm ->
      Kstate.disarm_timer ks addr;
      let saved = Kstate.irql ks in
      Kstate.set_irql ks Kstate.dispatch_level;
      Kstate.set_in_dpc ks true;
      Some
        ({ call_addr = tm.Kstate.t_func; call_args = [ tm.Kstate.t_ctx ] },
         saved)
