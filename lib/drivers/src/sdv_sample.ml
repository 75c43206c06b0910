(* A miniport whose OID dispatch fans out to functions carrying classic
   API-rule defects — the shape of the sample drivers shipped with static
   driver verifiers. *)

let harness ~query_body ~init_extra ~extra_functions = Printf.sprintf {|
// sdv_sample -- API-rule exercise miniport
const TAG      = 0x53445630;
const CTX_SIZE = 128;
const CTX_LOCK1 = 8;
const CTX_LOCK2 = 24;
const CTX_DATA  = 48;

int g_ctx;
int chars[8];

%s

int isr(int ctx) {
  return 0;
}

int send(int pkt, int len) {
  if (len < 14) { return 1; }
  return 0;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  return 4;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (g_ctx == 0) { return 1; }
%s
  return 4;
}

int initialize(void) {
  int ctx;
  int status;
  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);
  NdisAllocateSpinLock(ctx + CTX_LOCK1);
  NdisAllocateSpinLock(ctx + CTX_LOCK2);
%s
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisFreeSpinLock(g_ctx + CTX_LOCK1);
  NdisFreeSpinLock(g_ctx + CTX_LOCK2);
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}

int driver_entry(void) {
  chars[0] = initialize;
  chars[1] = query;
  chars[2] = set_information;
  chars[3] = send;
  chars[4] = isr;
  chars[5] = 0;
  chars[6] = halt;
  chars[7] = 0;
  return NdisMRegisterMiniport(chars);
}
|} extra_functions query_body init_extra

(* --- the 8-bug sample driver ------------------------------------------- *)

let buggy_functions = {|
// bug 1: double acquire of the same lock (deadlock)
int do_double_acquire(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

// bug 2: one acquire, two releases (locally evident imbalance)
int do_extra_release(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK2);
  *(ctx + CTX_DATA) = 9;
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  return 0;
}

// bug 3: lock still held when the function (and entry point) returns
int do_forgotten_release(int ctx, int flag) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  if (flag == 0) {
    return 1;   // early exit leaks the lock
  }
  *(ctx + CTX_DATA) = flag;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

// bug 4: acquired plain, released with the Dpr variant
int do_wrong_variant(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = 1;
  NdisDprReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

// bug 5: passive-only API invoked while holding a spinlock (DISPATCH)
int do_wrong_irql(int ctx) {
  int cfg;
  NdisOpenConfiguration(&cfg);
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  int v = NdisReadConfiguration(cfg, "Depth", 4);
  *(ctx + CTX_DATA) = v;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  NdisCloseConfiguration(cfg);
  return 0;
}

// bug 6: locks released out of acquisition order
int do_out_of_order(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  NdisAcquireSpinLock(ctx + CTX_LOCK2);
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  return 0;
}

// bug 7: configuration handle leaked on the failure path
int do_config_leak(int ctx) {
  int cfg;
  int tmp;
  int status;
  NdisOpenConfiguration(&cfg);
  status = NdisAllocateMemoryWithTag(&tmp, 32, TAG);
  if (status != 0) {
    return 1;   // cfg handle leaks
  }
  NdisFreeMemory(tmp, 32, 0);
  NdisCloseConfiguration(cfg);
  return 0;
}

// bug 8: double free
int do_double_free(int ctx) {
  int tmp;
  int status = NdisAllocateMemoryWithTag(&tmp, 32, TAG);
  if (status != 0) { return 1; }
  NdisFreeMemory(tmp, 32, 0);
  NdisFreeMemory(tmp, 32, 0);
  return 0;
}
|}

let buggy_query = {|
  if (oid == 10) { return do_double_acquire(g_ctx); }
  if (oid == 11) { return do_extra_release(g_ctx); }
  if (oid == 12) { return do_forgotten_release(g_ctx, *buf); }
  if (oid == 13) { return do_wrong_variant(g_ctx); }
  if (oid == 14) { return do_wrong_irql(g_ctx); }
  if (oid == 15) { return do_out_of_order(g_ctx); }
  if (oid == 16) { return do_config_leak(g_ctx); }
  if (oid == 17) { return do_double_free(g_ctx); }
|}

let fixed_functions = {|
int do_double_acquire(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = 2;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

int do_extra_release(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK2);
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  return 0;
}

int do_forgotten_release(int ctx, int flag) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  if (flag == 0) {
    NdisReleaseSpinLock(ctx + CTX_LOCK1);
    return 1;
  }
  *(ctx + CTX_DATA) = flag;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

int do_wrong_variant(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = 1;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

int do_wrong_irql(int ctx) {
  int cfg;
  NdisOpenConfiguration(&cfg);
  int v = NdisReadConfiguration(cfg, "Depth", 4);
  NdisCloseConfiguration(cfg);
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = v;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

int do_out_of_order(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  NdisAcquireSpinLock(ctx + CTX_LOCK2);
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}

int do_config_leak(int ctx) {
  int cfg;
  int tmp;
  int status;
  NdisOpenConfiguration(&cfg);
  status = NdisAllocateMemoryWithTag(&tmp, 32, TAG);
  if (status != 0) {
    NdisCloseConfiguration(cfg);
    return 1;
  }
  NdisFreeMemory(tmp, 32, 0);
  NdisCloseConfiguration(cfg);
  return 0;
}

int do_double_free(int ctx) {
  int tmp;
  int status = NdisAllocateMemoryWithTag(&tmp, 32, TAG);
  if (status != 0) { return 1; }
  NdisFreeMemory(tmp, 32, 0);
  return 0;
}
|}

let source = harness ~query_body:buggy_query ~init_extra:"" ~extra_functions:buggy_functions
let fixed_source =
  harness ~query_body:buggy_query ~init_extra:"" ~extra_functions:fixed_functions

(* --- the five synthetic one-bug variants -------------------------------- *)

(* Defects 1-3 hide behind helper calls: an intraprocedural static
   analysis sees balanced (or unknowable) lock usage per function. *)

let synthetic_deadlock = harness
    ~query_body:{|
  if (oid == 10) { return outer(g_ctx); }
|}
    ~init_extra:""
    ~extra_functions:{|
int lock_it(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  return 0;
}
int unlock_it(int ctx) {
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}
int inner(int ctx) {
  lock_it(ctx);            // second acquire: deadlock
  *(ctx + CTX_DATA) = 1;
  unlock_it(ctx);
  return 0;
}
int outer(int ctx) {
  lock_it(ctx);
  inner(ctx);
  unlock_it(ctx);
  return 0;
}
|}

let synthetic_out_of_order = harness
    ~query_body:{|
  if (oid == 10) { return outer(g_ctx); }
|}
    ~init_extra:""
    ~extra_functions:{|
int take_both(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  NdisAcquireSpinLock(ctx + CTX_LOCK2);
  return 0;
}
int drop_first_then_second(int ctx) {
  NdisReleaseSpinLock(ctx + CTX_LOCK1);   // out of order: lock2 is newer
  NdisReleaseSpinLock(ctx + CTX_LOCK2);
  return 0;
}
int outer(int ctx) {
  take_both(ctx);
  *(ctx + CTX_DATA) = 1;
  drop_first_then_second(ctx);
  return 0;
}
|}

let synthetic_extra_release = harness
    ~query_body:{|
  if (oid == 10) { return outer(g_ctx); }
|}
    ~init_extra:""
    ~extra_functions:{|
int cleanup(int ctx) {
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}
int outer(int ctx) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = 1;
  cleanup(ctx);
  cleanup(ctx);    // releases a lock that is no longer held
  return 0;
}
|}

let synthetic_forgotten_release = harness
    ~query_body:{|
  if (oid == 10) { return hold_forever(g_ctx, *buf); }
|}
    ~init_extra:""
    ~extra_functions:{|
int hold_forever(int ctx, int flag) {
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  *(ctx + CTX_DATA) = flag;
  if (flag == 0) {
    return 1;    // lock leaks on this path (intraprocedurally visible)
  }
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  return 0;
}
|}

let synthetic_wrong_irql = harness
    ~query_body:{|
  if (oid == 10) { return raised_config(g_ctx); }
  if (oid == 11) { return correct_conditional(g_ctx, *buf); }
|}
    ~init_extra:""
    ~extra_functions:{|
int raised_config(int ctx) {
  int cfg;
  NdisOpenConfiguration(&cfg);
  NdisAcquireSpinLock(ctx + CTX_LOCK1);
  // passive-only API at DISPATCH_LEVEL (intraprocedurally visible)
  int v = NdisReadConfiguration(cfg, "Depth", 4);
  *(ctx + CTX_DATA) = v;
  NdisReleaseSpinLock(ctx + CTX_LOCK1);
  NdisCloseConfiguration(cfg);
  return 0;
}

// CORRECT code that a path-insensitive analysis misjudges: the acquire
// and the release are guarded by the same condition, so every real path
// is balanced -- but merging the branches makes the lock state "maybe
// held" at exit (the static baseline's false positive).
int correct_conditional(int ctx, int flag) {
  if (flag != 0) {
    NdisAcquireSpinLock(ctx + CTX_LOCK1);
  }
  *(ctx + CTX_DATA) = flag;
  if (flag != 0) {
    NdisReleaseSpinLock(ctx + CTX_LOCK1);
  }
  return 0;
}
|}
