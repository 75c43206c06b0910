let common = {|
// pro100 -- Intel 8255x-style fast Ethernet miniport (DDK sample alike)
const TAG       = 0x30303145;   // 'E100'
const CTX_SIZE  = 256;
const CTX_MMIO  = 0;
const CTX_LOCK  = 8;            // spinlock object at ctx+8
const CTX_TIMER = 16;
const CTX_RXCNT = 36;
const CTX_TXCNT = 40;
const CTX_PROMISC = 44;

const SCB_STATUS = 0;
const SCB_ACK    = 4;
const SCB_CMD    = 8;
const RX_STATUS  = 12;
const TX_FIFO    = 16;

const OID_SUPPORTED = 1;
const OID_RX_COUNT  = 2;
const OID_TX_COUNT  = 3;
const OID_PROMISC   = 4;

int g_ctx;
int g_timer_ready;
int chars[8];

// Read a 16-bit word from the 8255x serial EEPROM (bit-banged in real
// hardware; register window here), with bounded polling.
int eeprom_read(int ctx, int word_index) {
  int mmio = *(ctx + CTX_MMIO);
  *(mmio + SCB_CMD) = 0x1000 | (word_index & 0xFF);
  int tries;
  for (tries = 0; tries < 2; tries = tries + 1) {
    int v = *(mmio + SCB_STATUS);
    if (v & 0x10) { return v >> 16; }
  }
  return 0xFFFF;
}

// The 8255x EEPROM stores a checksum so that all words sum to 0xBABA.
int eeprom_checksum_ok(int ctx) {
  int sum = 0;
  int i;
  for (i = 0; i < 4; i = i + 1) {
    sum = sum + eeprom_read(ctx, i);
  }
  return (sum & 0xFFFF) == 0xBABA;
}

// CRC-style multicast hash: the high 6 bits select the filter bucket.
int multicast_hash(int mac_ptr) {
  int crc = 0xFFFFFFFF;
  int i;
  for (i = 0; i < 6; i = i + 1) {
    int byte = __ldb(mac_ptr + i);
    crc = crc ^ (byte << 24);
    int bit;
    for (bit = 0; bit < 8; bit = bit + 1) {
      if (crc & 0x80000000) { crc = (crc << 1) ^ 0x04C11DB7; }
      else { crc = crc << 1; }
    }
  }
  return (crc >> 26) & 0x3F;
}

// Port self-test: the device writes a signature into a results buffer.
int self_test(int ctx, int results) {
  int mmio = *(ctx + CTX_MMIO);
  *(results + 0) = 0;
  *(results + 4) = 0xFFFFFFFF;
  *(mmio + SCB_CMD) = results | 1;    // PORT self-test command
  NdisStallExecution(10);
  int sig = *(results + 0);
  int res = *(results + 4);
  if (sig == 0) { return 1; }          // device never responded
  if (res != 0) { return 1; }          // self-test failure bits
  return 0;
}

int link_check(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int status = *(mmio + SCB_STATUS);
  if (status & 0x100) { *(ctx + CTX_PROMISC) = *(ctx + CTX_PROMISC); }
  return 0;
}

int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int scb = *(mmio + SCB_STATUS);
  if ((scb & 0xFF00) == 0) { return 0; }
  *(mmio + SCB_ACK) = scb;
  return 3;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (g_ctx == 0) { return 1; }
  if (oid == OID_SUPPORTED) { *buf = 4; return 0; }
  if (oid == OID_RX_COUNT)  { *buf = *(g_ctx + CTX_RXCNT); return 0; }
  if (oid == OID_TX_COUNT)  { *buf = *(g_ctx + CTX_TXCNT); return 0; }
  if (oid == OID_PROMISC)   { *buf = *(g_ctx + CTX_PROMISC); return 0; }
  return 4;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (g_ctx == 0) { return 1; }
  if (oid == OID_PROMISC) {
    int v = *buf;
    if (v != 0) { v = 1; }
    NdisAcquireSpinLock(g_ctx + CTX_LOCK);
    *(g_ctx + CTX_PROMISC) = v;
    NdisReleaseSpinLock(g_ctx + CTX_LOCK);
    return 0;
  }
  if (oid == 5) {                     // OID_MULTICAST_ADDR
    if (len < 6) { return 2; }
    int bucket = multicast_hash(buf);
    int mmio = *(g_ctx + CTX_MMIO);
    *(mmio + SCB_CMD) = 0x2000 | bucket;
    return 0;
  }
  return 4;
}

int send(int pkt, int len) {
  if (g_ctx == 0) { return 1; }
  if (len < 14) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  NdisAcquireSpinLock(g_ctx + CTX_LOCK);
  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(mmio + TX_FIFO, __ldb(pkt + i));
  }
  *(mmio + SCB_CMD) = len;
  *(g_ctx + CTX_TXCNT) = *(g_ctx + CTX_TXCNT) + 1;
  NdisReleaseSpinLock(g_ctx + CTX_LOCK);
  return 0;
}

int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }
  int promisc = NdisReadConfiguration(cfg, "Promiscuous", 0);
  NdisCloseConfiguration(cfg);

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);
  if (promisc != 0) { promisc = 1; }
  *(ctx + CTX_PROMISC) = promisc;

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_MMIO) = mmio;

  if (eeprom_checksum_ok(ctx) == 0) {
    NdisWriteErrorLogEntry(0xE1);      // corrupt EEPROM: log and continue
  }
  int st_buf;
  status = NdisAllocateMemoryWithTag(&st_buf, 16, TAG);
  if (status == 0) {
    if (self_test(ctx, st_buf)) { NdisWriteErrorLogEntry(0xE2); }
    NdisFreeMemory(st_buf, 16, 0);
  }

  NdisAllocateSpinLock(ctx + CTX_LOCK);

  status = NdisMRegisterInterrupt(5);
  if (status != 0) {
    NdisFreeSpinLock(ctx + CTX_LOCK);
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  NdisMInitializeTimer(ctx + CTX_TIMER, link_check, ctx);
  g_timer_ready = 1;
  NdisMSetTimer(ctx + CTX_TIMER, 3000);
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisMCancelTimer(g_ctx + CTX_TIMER);
  NdisMDeregisterInterrupt();
  NdisFreeSpinLock(g_ctx + CTX_LOCK);
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}

// PORT selective reset followed by re-validating the EEPROM, as the DDK
// sample does.
int reset(void) {
  if (g_ctx == 0) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  NdisAcquireSpinLock(g_ctx + CTX_LOCK);
  *(mmio + SCB_CMD) = 2;                  // PORT selective-reset
  NdisStallExecution(20);
  if (eeprom_checksum_ok(g_ctx) == 0) { NdisWriteErrorLogEntry(0xE3); }
  NdisReleaseSpinLock(g_ctx + CTX_LOCK);
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

let source = {|
int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  NdisDprAcquireSpinLock(ctx + CTX_LOCK);
  int rx = *(mmio + RX_STATUS);
  if (rx & 1) {
    *(ctx + CTX_RXCNT) = *(ctx + CTX_RXCNT) + 1;
    NdisMIndicateReceivePacket(ctx);
  }
  // BUG: the lock was taken with the Dpr variant, but is released with
  // plain NdisReleaseSpinLock -- specifically prohibited from a DPC, as
  // it restores a stale IRQL (kernel hang or panic).
  NdisReleaseSpinLock(ctx + CTX_LOCK);
  return 0;
}
|} ^ common

let fixed_source = {|
int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  NdisDprAcquireSpinLock(ctx + CTX_LOCK);
  int rx = *(mmio + RX_STATUS);
  if (rx & 1) {
    *(ctx + CTX_RXCNT) = *(ctx + CTX_RXCNT) + 1;
    NdisMIndicateReceivePacket(ctx);
  }
  NdisDprReleaseSpinLock(ctx + CTX_LOCK);
  return 0;
}
|} ^ common
