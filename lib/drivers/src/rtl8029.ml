(* The driver is Mini-C compiled to a DXE binary; DDT only ever sees the
   binary. The buggy variant carries the five RTL8029 findings of Table 2
   at the same API boundaries as the paper describes them. *)

let common_prologue = {|
// rtl8029 -- NE2000-class PCI Ethernet miniport
const TAG        = 0x32395445;   // 'ET92'
const CTX_SIZE   = 128;
const CTX_MMIO   = 0;            // word offsets inside the context
const CTX_TIMER  = 4;            // timer object lives at ctx+4 (16 bytes)
const CTX_MCAST  = 24;           // 8-entry multicast table (32 bytes)
const CTX_NMCAST = 56;
const CTX_LINK   = 64;
const CTX_IPTX   = 68;
const MCAST_ENTRIES = 8;

const OID_SUPPORTED  = 1;
const OID_LOOKAHEAD  = 2;
const OID_MCAST_LIST = 3;

const REG_ISR_STATUS = 0;
const REG_ISR_ACK    = 4;
const REG_RX_STATUS  = 8;
const REG_LINK       = 12;
const REG_TX_FIFO    = 16;
const REG_TX_LEN     = 20;

int g_ctx;
int g_lookahead;
int g_timer_ready;
int oid_table[8];
int chars[8];
|}

let common_handlers = {|
int link_timer(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int link = *(mmio + REG_LINK);
  if (link & 1) { *(ctx + CTX_LINK) = 1; }
  else { *(ctx + CTX_LINK) = 0; }
  return 0;
}

int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int status = *(mmio + REG_RX_STATUS);
  if (status & 1) {
    NdisMIndicateReceivePacket(ctx);
  }
  return 0;
}

int send(int pkt, int len) {
  if (g_ctx == 0) { return 1; }
  if (len < 14) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  int ethertype = __ldb(pkt + 12) * 256 + __ldb(pkt + 13);
  if (ethertype == 2048) {
    *(g_ctx + CTX_IPTX) = *(g_ctx + CTX_IPTX) + 1;
  }
  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(mmio + REG_TX_FIFO, __ldb(pkt + i));
  }
  *(mmio + REG_TX_LEN) = len;
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisMCancelTimer(g_ctx + CTX_TIMER);
  NdisMDeregisterInterrupt();
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}

// Soft reset: quiesce, reprogram the chip, re-arm the watchdog. The
// handler must work from any device state, so everything it touches is
// re-checked.
int reset(void) {
  if (g_ctx == 0) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  NdisMCancelTimer(g_ctx + CTX_TIMER);
  *(mmio + REG_ISR_ACK) = 0xFF;        // ack anything pending
  *(mmio + REG_TX_LEN) = 0;
  *(g_ctx + CTX_IPTX) = 0;
  int up = *(mmio + REG_LINK);
  if (up & 1) { *(g_ctx + CTX_LINK) = 1; } else { *(g_ctx + CTX_LINK) = 0; }
  NdisMSetTimer(g_ctx + CTX_TIMER, 1000);
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
int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int status = *(mmio + REG_ISR_STATUS);
  if ((status & 3) == 0) { return 0; }
  *(mmio + REG_ISR_ACK) = status;
  // BUG (race): schedules the watchdog without checking that the timer
  // object was ever initialized -- fatal if the interrupt arrives between
  // NdisMRegisterInterrupt and NdisMInitializeTimer.
  NdisMSetTimer(ctx + CTX_TIMER, 100);
  return 3;
}

int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }

  int mcast_count = NdisReadConfiguration(cfg, "MaximumMulticastList", 4);
  g_lookahead = NdisReadConfiguration(cfg, "LookAhead", 64);

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) {
    // BUG (leak): early exit skips NdisCloseConfiguration.
    return 1;
  }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    NdisCloseConfiguration(cfg);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_MMIO) = mmio;

  // BUG (memory corruption): the registry value indexes a fixed-size
  // table without any range check.
  int mcast = ctx + CTX_MCAST;
  mcast[mcast_count] = 0;
  *(ctx + CTX_NMCAST) = mcast_count;

  status = NdisMRegisterInterrupt(9);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    NdisCloseConfiguration(cfg);
    g_ctx = 0;
    return 1;
  }

  // BUG window: the ISR is live but the timer object is still garbage.
  NdisMInitializeTimer(ctx + CTX_TIMER, link_timer, ctx);
  g_timer_ready = 1;
  NdisMSetTimer(ctx + CTX_TIMER, 1000);

  NdisCloseConfiguration(cfg);
  return 0;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_SUPPORTED)  { *buf = 3; return 0; }
  if (oid == OID_LOOKAHEAD)  { *buf = g_lookahead; return 0; }
  // BUG (segfault): unexpected OIDs index a handler table that was never
  // filled in; the null "handler" is then dereferenced.
  int handler = oid_table[oid & 7];
  *handler = oid;
  return 0;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_LOOKAHEAD) { g_lookahead = *buf; return 0; }
  if (oid == OID_MCAST_LIST) {
    if (g_ctx != 0) { *(g_ctx + CTX_NMCAST) = *buf; }
    return 0;
  }
  // BUG (segfault): same unchecked dispatch on the set path.
  int handler = oid_table[(oid >> 2) & 7];
  *handler = *buf;
  return 0;
}
|}
  ^ common_handlers

let fixed_source =
  common_prologue
  ^ {|
int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int status = *(mmio + REG_ISR_STATUS);
  if ((status & 3) == 0) { return 0; }
  *(mmio + REG_ISR_ACK) = status;
  if (g_timer_ready) {
    NdisMSetTimer(ctx + CTX_TIMER, 100);
  }
  return 3;
}

int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }

  int mcast_count = NdisReadConfiguration(cfg, "MaximumMulticastList", 4);
  g_lookahead = NdisReadConfiguration(cfg, "LookAhead", 64);

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) {
    NdisCloseConfiguration(cfg);
    return 1;
  }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    NdisCloseConfiguration(cfg);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_MMIO) = mmio;

  if (__ltu(MCAST_ENTRIES - 1, mcast_count)) {
    mcast_count = MCAST_ENTRIES - 1;
  }
  int mcast = ctx + CTX_MCAST;
  mcast[mcast_count] = 0;
  *(ctx + CTX_NMCAST) = mcast_count;

  status = NdisMRegisterInterrupt(9);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    NdisCloseConfiguration(cfg);
    g_ctx = 0;
    return 1;
  }

  NdisMInitializeTimer(ctx + CTX_TIMER, link_timer, ctx);
  g_timer_ready = 1;
  NdisMSetTimer(ctx + CTX_TIMER, 1000);

  NdisCloseConfiguration(cfg);
  return 0;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_SUPPORTED)  { *buf = 3; return 0; }
  if (oid == OID_LOOKAHEAD)  { *buf = g_lookahead; return 0; }
  return 4;   // NOT_SUPPORTED
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_LOOKAHEAD) { g_lookahead = *buf; return 0; }
  if (oid == OID_MCAST_LIST) {
    if (g_ctx != 0) { *(g_ctx + CTX_NMCAST) = *buf; }
    return 0;
  }
  return 4;
}
|}
  ^ common_handlers
