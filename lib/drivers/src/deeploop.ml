(* Synthetic "deep loop" miniport: a polling loop whose body branches on
   a fresh device word every iteration. Without state merging each round
   doubles the frontier (2^ROUNDS paths through initialize); with merging
   the two arms re-fuse at the loop latch, so the state count stays linear
   in ROUNDS. The one seeded bug sits after the loop behind an independent
   device byte, so both exploration modes must report the identical bug. *)

let common_prologue = {|
// deeploop -- synthetic NE2000-class polling miniport
const TAG        = 0x504C4444;   // 'DDLP'
const CTX_SIZE   = 64;
const CTX_MMIO   = 0;            // word offsets inside the context
const CTX_ACC    = 4;            // folded status checksum
const CTX_LINK   = 8;

const REG_STATUS     = 0;        // polled once per loop round
const REG_CAL        = 4;        // post-loop calibration byte
const REG_ISR_STATUS = 8;
const REG_ISR_ACK    = 12;
const REG_TX_FIFO    = 16;

const ROUNDS = 8;

int g_ctx;
int chars[8];
|}

let common_handlers = {|
int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int status = *(mmio + REG_ISR_STATUS);
  if ((status & 1) == 0) { return 0; }
  *(mmio + REG_ISR_ACK) = status;
  return 3;
}

int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  *(ctx + CTX_LINK) = *(mmio + REG_ISR_STATUS) & 2;
  return 0;
}

int query(int oid, int buf, int len) {
  if (oid == 1) { *buf = 1; return 0; }
  if (oid == 2) { *buf = *(g_ctx + CTX_ACC); return 0; }
  return 4;   // NOT_SUPPORTED
}

int set_information(int oid, int buf, int len) {
  if (oid == 2) { *(g_ctx + CTX_ACC) = *buf; return 0; }
  return 4;
}

int send(int pkt, int len) {
  int mmio = *(g_ctx + CTX_MMIO);
  __stb(mmio + REG_TX_FIFO, __ldb(pkt));
  return 0;
}

int reset(void) {
  *(g_ctx + CTX_ACC) = 0;
  return 0;
}

int halt(void) {
  NdisMDeregisterInterrupt();
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
  chars[5] = handle_interrupt;
  chars[6] = halt;
  chars[7] = reset;
  return NdisMRegisterMiniport(chars);
}
|}

let source =
  common_prologue
  ^ {|
int initialize(void) {
  int ctx;
  int mmio;
  int status;

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  // The harness only fault-injects the allocator family, so MapIoSpace
  // and RegisterInterrupt cannot fail here; defensive arms for them
  // would be dead blocks and spoil the coverage universe.
  NdisMMapIoSpace(&mmio, 0);
  *(ctx + CTX_MMIO) = mmio;
  NdisMRegisterInterrupt(9);

  // Calibration: poll the status register ROUNDS times and fold each
  // word into a checksum two different ways depending on its ready bit.
  // Every round reads a fresh (symbolic) device word, so this is the
  // path-explosion kernel: 2^ROUNDS paths if each branch forks.
  int acc = 0;
  int i;
  int v;
  for (i = 0; i < ROUNDS; i = i + 1) {
    v = *(mmio + REG_STATUS);
    if (v & 1) { acc = acc + (v & 0xFF); }
    else       { acc = acc ^ (i + 1); }
  }
  *(ctx + CTX_ACC) = acc;

  // BUG (segfault): one calibration byte makes the driver persist the
  // checksum through a scratch pointer that was never set up.
  int probe = *(mmio + REG_CAL);
  if ((probe & 0xFF) == 0x77) {
    int scratch = 0;
    *scratch = acc;
  }
  return 0;
}
|}
  ^ common_handlers

let fixed_source =
  common_prologue
  ^ {|
int initialize(void) {
  int ctx;
  int mmio;
  int status;

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  // The harness only fault-injects the allocator family, so MapIoSpace
  // and RegisterInterrupt cannot fail here; defensive arms for them
  // would be dead blocks and spoil the coverage universe.
  NdisMMapIoSpace(&mmio, 0);
  *(ctx + CTX_MMIO) = mmio;
  NdisMRegisterInterrupt(9);

  int acc = 0;
  int i;
  int v;
  for (i = 0; i < ROUNDS; i = i + 1) {
    v = *(mmio + REG_STATUS);
    if (v & 1) { acc = acc + (v & 0xFF); }
    else       { acc = acc ^ (i + 1); }
  }
  *(ctx + CTX_ACC) = acc;

  // Fixed: the calibration result lands in the context, not through a
  // null scratch pointer.
  int probe = *(mmio + REG_CAL);
  if ((probe & 0xFF) == 0x77) {
    *(ctx + CTX_LINK) = acc;
  }
  return 0;
}
|}
  ^ common_handlers
