let common = {|
// pro1000 -- Intel 8254x-style gigabit Ethernet miniport
const TAG        = 0x45314B47;   // 'G1KE'
const CTX_SIZE   = 512;
const CTX_MMIO   = 0;
const CTX_TXRING = 4;
const CTX_RXRING = 8;
const CTX_TIMER  = 12;           // 16-byte timer object
const CTX_MAC0   = 32;           // 6-byte MAC address
const CTX_SPEED  = 40;
const CTX_DUPLEX = 44;
const CTX_MTU    = 48;
const CTX_RXCNT  = 52;
const CTX_TXCNT  = 56;
const CTX_ERRCNT = 60;
const CTX_FLAGS  = 64;
const CTX_PHYID  = 68;
const TX_RING_BYTES = 512;
const RX_RING_BYTES = 512;

// device registers
const R_CTRL   = 0;
const R_STATUS = 4;
const R_ICR    = 8;     // interrupt cause, read clears
const R_IMS    = 12;
const R_EERD   = 16;    // eeprom read port
const R_MDIC   = 20;    // phy access port
const R_RDT    = 24;
const R_TDT    = 28;
const R_TXD    = 32;    // tx data window
const R_RXSTAT = 36;

const OID_SUPPORTED   = 1;
const OID_MAC_ADDRESS = 2;
const OID_LINK_SPEED  = 3;
const OID_MTU         = 4;
const OID_RX_COUNT    = 5;
const OID_TX_COUNT    = 6;
const OID_ERR_COUNT   = 7;
const OID_DUPLEX      = 8;

int g_ctx;
int g_timer_ready;
int chars[8];

// Read one 16-bit word from the EEPROM through the EERD register; the
// done bit may never come up on broken hardware, so bound the polling.
int eeprom_read(int mmio, int word_index) {
  *(mmio + R_EERD) = (word_index << 8) | 1;
  int tries;
  for (tries = 0; tries < 2; tries = tries + 1) {
    int v = *(mmio + R_EERD);
    if (v & 2) {                 // done bit
      return (v >> 16) & 0xFFFF;
    }
  }
  return 0xFFFF;                 // timed out: float high like real eeproms
}

int mdio_read(int mmio, int phy, int reg) {
  *(mmio + R_MDIC) = (phy << 21) | (reg << 16) | (1 << 27);
  int tries;
  for (tries = 0; tries < 2; tries = tries + 1) {
    int v = *(mmio + R_MDIC);
    if (v & (1 << 28)) {
      return v & 0xFFFF;
    }
  }
  return 0xFFFF;
}

int mdio_write(int mmio, int phy, int reg, int value) {
  *(mmio + R_MDIC) = (phy << 21) | (reg << 16) | (2 << 26) | (value & 0xFFFF);
  return 0;
}

// Internet checksum over a byte buffer, for TX offload emulation.
int checksum16(int buf, int len) {
  int sum = 0;
  int i = 0;
  while (i + 1 < len) {
    sum = sum + (__ldb(buf + i) << 8) + __ldb(buf + i + 1);
    i = i + 2;
  }
  if (i < len) { sum = sum + (__ldb(buf + i) << 8); }
  // branch-free carry fold: two rounds always suffice for <= 64K bytes
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  return (~sum) & 0xFFFF;
}

int read_mac_from_eeprom(int ctx, int mmio) {
  int w0 = eeprom_read(mmio, 0);
  int w1 = eeprom_read(mmio, 1);
  int w2 = eeprom_read(mmio, 2);
  __stb(ctx + CTX_MAC0 + 0, w0 & 0xFF);
  __stb(ctx + CTX_MAC0 + 1, (w0 >> 8) & 0xFF);
  __stb(ctx + CTX_MAC0 + 2, w1 & 0xFF);
  __stb(ctx + CTX_MAC0 + 3, (w1 >> 8) & 0xFF);
  __stb(ctx + CTX_MAC0 + 4, w2 & 0xFF);
  __stb(ctx + CTX_MAC0 + 5, (w2 >> 8) & 0xFF);
  return 0;
}

int setup_ring(int ring, int bytes) {
  NdisZeroMemory(ring, bytes);
  // descriptor 0 marked owned-by-hardware
  *(ring + 0) = 0x80000000;
  return 0;
}

int negotiate_link(int ctx, int mmio) {
  int bmsr = mdio_read(mmio, *(ctx + CTX_PHYID), 1);
  if (bmsr & 4) {                 // link up
    int speed_bits = mdio_read(mmio, *(ctx + CTX_PHYID), 17);
    if (speed_bits & 0x8000)      { *(ctx + CTX_SPEED) = 1000; }
    else { if (speed_bits & 0x4000) { *(ctx + CTX_SPEED) = 100; }
           else                      { *(ctx + CTX_SPEED) = 10; } }
    if (speed_bits & 0x2000) { *(ctx + CTX_DUPLEX) = 1; }
    else                     { *(ctx + CTX_DUPLEX) = 0; }
    return 1;
  }
  *(ctx + CTX_SPEED) = 0;
  return 0;
}

int watchdog(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  negotiate_link(ctx, mmio);
  return 0;
}

int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int icr = *(mmio + R_ICR);
  if (icr == 0) { return 0; }
  if (icr & 0x84) { return 3; }   // rx or link change: queue the dpc
  return 1;
}

int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int rxstat = *(mmio + R_RXSTAT);
  if (rxstat & 1) {
    *(ctx + CTX_RXCNT) = *(ctx + CTX_RXCNT) + 1;
    NdisMIndicateReceivePacket(ctx);
  }
  if (rxstat & 2) {
    *(ctx + CTX_ERRCNT) = *(ctx + CTX_ERRCNT) + 1;
  }
  return 0;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (g_ctx == 0) { return 1; }
  if (oid == OID_SUPPORTED)   { *buf = 8; return 0; }
  if (oid == OID_MAC_ADDRESS) {
    if (len < 8) { return 2; }
    *buf = *(g_ctx + CTX_MAC0);
    *(buf + 4) = *(g_ctx + CTX_MAC0 + 4) & 0xFFFF;
    return 0;
  }
  if (oid == OID_LINK_SPEED) { *buf = *(g_ctx + CTX_SPEED); return 0; }
  if (oid == OID_MTU)        { *buf = *(g_ctx + CTX_MTU); return 0; }
  if (oid == OID_RX_COUNT)   { *buf = *(g_ctx + CTX_RXCNT); return 0; }
  if (oid == OID_TX_COUNT)   { *buf = *(g_ctx + CTX_TXCNT); return 0; }
  if (oid == OID_ERR_COUNT)  { *buf = *(g_ctx + CTX_ERRCNT); return 0; }
  if (oid == OID_DUPLEX)     { *buf = *(g_ctx + CTX_DUPLEX); return 0; }
  return 4;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (g_ctx == 0) { return 1; }
  if (oid == OID_MTU) {
    int mtu = *buf;
    if (__ltu(9014, mtu)) { return 2; }
    if (__ltu(mtu, 68))   { return 2; }
    *(g_ctx + CTX_MTU) = mtu;
    return 0;
  }
  if (oid == OID_RX_COUNT) { *(g_ctx + CTX_RXCNT) = 0; return 0; }
  if (oid == OID_TX_COUNT) { *(g_ctx + CTX_TXCNT) = 0; return 0; }
  return 4;
}

int send(int pkt, int len) {
  if (g_ctx == 0) { return 1; }
  if (len < 14) { return 1; }
  if (__ltu(*(g_ctx + CTX_MTU) + 14, len)) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  int csum = checksum16(pkt, len);
  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(mmio + R_TXD, __ldb(pkt + i));
  }
  *(mmio + R_TDT) = (len << 16) | csum;
  *(g_ctx + CTX_TXCNT) = *(g_ctx + CTX_TXCNT) + 1;
  return 0;
}

// Full MAC reset: device control reset bit, rebuild the rings, renegotiate.
int reset(void) {
  if (g_ctx == 0) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  *(mmio + R_CTRL) = 0x04000000;
  NdisStallExecution(10);
  setup_ring(*(g_ctx + CTX_TXRING), TX_RING_BYTES);
  setup_ring(*(g_ctx + CTX_RXRING), RX_RING_BYTES);
  *(g_ctx + CTX_RXCNT) = 0;
  *(g_ctx + CTX_TXCNT) = 0;
  *(g_ctx + CTX_ERRCNT) = 0;
  negotiate_link(g_ctx, mmio);
  *(mmio + R_IMS) = 0x84;
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

let init_body ~buggy =
  let rx_fail_path =
    if buggy then
      {|
  status = NdisAllocateMemoryWithTag(&rxring, RX_RING_BYTES, TAG);
  if (status != 0) {
    // BUG (leak): the tx ring is released but the context block is
    // forgotten on this failure path.
    NdisFreeMemory(txring, TX_RING_BYTES, 0);
    g_ctx = 0;
    return 1;
  }
|}
    else
      {|
  status = NdisAllocateMemoryWithTag(&rxring, RX_RING_BYTES, TAG);
  if (status != 0) {
    NdisFreeMemory(txring, TX_RING_BYTES, 0);
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
|}
  in
  {|
int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int txring;
  int rxring;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }
  int mtu = NdisReadConfiguration(cfg, "JumboMtu", 1500);
  int phyid = NdisReadConfiguration(cfg, "PhyAddress", 1);
  NdisCloseConfiguration(cfg);
  if (__ltu(9014, mtu)) { mtu = 1500; }
  if (__ltu(31, phyid)) { phyid = 1; }

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);
  *(ctx + CTX_MTU) = mtu;
  *(ctx + CTX_PHYID) = phyid;

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_MMIO) = mmio;

  // reset the mac and wait for it to settle
  *(mmio + R_CTRL) = 0x04000000;
  NdisStallExecution(10);
  read_mac_from_eeprom(ctx, mmio);

  status = NdisAllocateMemoryWithTag(&txring, TX_RING_BYTES, TAG);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_TXRING) = txring;
  setup_ring(txring, TX_RING_BYTES);
|}
  ^ rx_fail_path
  ^ {|
  *(ctx + CTX_RXRING) = rxring;
  setup_ring(rxring, RX_RING_BYTES);

  status = NdisMRegisterInterrupt(11);
  if (status != 0) {
    NdisFreeMemory(rxring, RX_RING_BYTES, 0);
    NdisFreeMemory(txring, TX_RING_BYTES, 0);
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  NdisMInitializeTimer(ctx + CTX_TIMER, watchdog, ctx);
  g_timer_ready = 1;
  NdisMSetTimer(ctx + CTX_TIMER, 2000);

  negotiate_link(ctx, mmio);
  *(mmio + R_IMS) = 0x84;       // unmask rx + link interrupts
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisMCancelTimer(g_ctx + CTX_TIMER);
  NdisMDeregisterInterrupt();
  NdisFreeMemory(*(g_ctx + CTX_RXRING), RX_RING_BYTES, 0);
  NdisFreeMemory(*(g_ctx + CTX_TXRING), TX_RING_BYTES, 0);
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}
|}

let source = init_body ~buggy:true ^ common
let fixed_source = init_body ~buggy:false ^ common
