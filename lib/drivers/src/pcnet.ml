let common = {|
// pcnet -- AMD PCNet/LANCE-style PCI Ethernet miniport
const TAG       = 0x50434E54;    // 'PCNT'
const CTX_SIZE  = 160;
const CTX_MMIO  = 0;
const CTX_RING  = 4;             // receive ring buffer pointer
const CTX_PKT   = 8;             // preallocated receive packet
const CTX_BUF   = 12;            // preallocated receive buffer descriptor
const CTX_PKTPOOL = 16;
const CTX_BUFPOOL = 20;
const CTX_STATS_RX = 24;
const CTX_STATS_TX = 28;
const RING_SIZE = 256;

const OID_SUPPORTED = 1;
const OID_STATS_RX  = 2;
const OID_STATS_TX  = 3;

const CSR0 = 0;   // status/control
const CSR1 = 4;   // ack
const CSR2 = 8;   // rx status
const RDP  = 16;  // data port
const RAP  = 20;

int g_ctx;
int chars[8];

int isr(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int csr0 = *(mmio + CSR0);
  if ((csr0 & 0x80) == 0) { return 0; }   // not our interrupt
  *(mmio + CSR1) = csr0;                  // acknowledge
  return 3;
}

int handle_interrupt(int ctx) {
  int mmio = *(ctx + CTX_MMIO);
  int rx = *(mmio + CSR2);
  if (rx & 1) {
    *(ctx + CTX_STATS_RX) = *(ctx + CTX_STATS_RX) + 1;
    NdisMIndicateReceivePacket(*(ctx + CTX_PKT));
  }
  return 0;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_SUPPORTED) { *buf = 3; return 0; }
  if (oid == OID_STATS_RX) {
    if (g_ctx != 0) { *buf = *(g_ctx + CTX_STATS_RX); } else { *buf = 0; }
    return 0;
  }
  if (oid == OID_STATS_TX) {
    if (g_ctx != 0) { *buf = *(g_ctx + CTX_STATS_TX); } else { *buf = 0; }
    return 0;
  }
  return 4;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == OID_STATS_RX) {
    if (g_ctx != 0) { *(g_ctx + CTX_STATS_RX) = 0; }
    return 0;
  }
  return 4;
}

int send(int pkt, int len) {
  if (g_ctx == 0) { return 1; }
  if (len < 14) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  int i;
  *(mmio + RAP) = 0;
  for (i = 0; i < len; i = i + 1) {
    __stb(mmio + RDP, __ldb(pkt + i));
  }
  *(g_ctx + CTX_STATS_TX) = *(g_ctx + CTX_STATS_TX) + 1;
  return 0;
}

// Soft reset: stop the chip, clear counters, restart with the stored
// duplex mode.
int reset(void) {
  if (g_ctx == 0) { return 1; }
  int mmio = *(g_ctx + CTX_MMIO);
  *(mmio + CSR0) = 4;                      // STOP
  *(g_ctx + CTX_STATS_RX) = 0;
  *(g_ctx + CTX_STATS_TX) = 0;
  *(mmio + CSR0) = 1;                      // INIT|START
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
int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int ring;
  int pktpool;
  int bufpool;
  int pkt;
  int bufd;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }
  int mode = NdisReadConfiguration(cfg, "FullDuplex", 1);
  NdisCloseConfiguration(cfg);

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_MMIO) = mmio;
  if (mode) { *(mmio + CSR0) = 3; } else { *(mmio + CSR0) = 1; }

  // BUG (leak): this ring buffer is never freed anywhere, not even in
  // Halt.
  status = NdisAllocateMemoryWithTag(&ring, RING_SIZE, TAG);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_RING) = ring;

  status = NdisAllocatePacketPool(&pktpool, 16);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_PKTPOOL) = pktpool;

  status = NdisAllocateBufferPool(&bufpool, 16);
  if (status != 0) {
    // BUG (leak): bails out without freeing the packet pool (or the
    // ring).
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_BUFPOOL) = bufpool;

  status = NdisAllocatePacket(&pkt, pktpool);
  if (status != 0) {
    // BUG (leak): pools and ring leak again on this failure path.
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_PKT) = pkt;

  status = NdisAllocateBuffer(&bufd, bufpool, ring, RING_SIZE);
  if (status != 0) {
    // BUG (leak): the allocated packet and both pools leak here too.
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  *(ctx + CTX_BUF) = bufd;

  status = NdisMRegisterInterrupt(10);
  if (status != 0) {
    NdisFreeBuffer(bufd);
    NdisFreePacket(pkt);
    NdisFreeBufferPool(bufpool);
    NdisFreePacketPool(pktpool);
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisMDeregisterInterrupt();
  NdisFreeBuffer(*(g_ctx + CTX_BUF));
  NdisFreePacket(*(g_ctx + CTX_PKT));
  NdisFreeBufferPool(*(g_ctx + CTX_BUFPOOL));
  NdisFreePacketPool(*(g_ctx + CTX_PKTPOOL));
  // BUG (leak): the receive ring at CTX_RING is forgotten.
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}
|} ^ common

let fixed_source = {|
int free_rx_resources(int ctx) {
  if (*(ctx + CTX_BUF) != 0)     { NdisFreeBuffer(*(ctx + CTX_BUF)); }
  if (*(ctx + CTX_PKT) != 0)     { NdisFreePacket(*(ctx + CTX_PKT)); }
  if (*(ctx + CTX_BUFPOOL) != 0) { NdisFreeBufferPool(*(ctx + CTX_BUFPOOL)); }
  if (*(ctx + CTX_PKTPOOL) != 0) { NdisFreePacketPool(*(ctx + CTX_PKTPOOL)); }
  if (*(ctx + CTX_RING) != 0)    { NdisFreeMemory(*(ctx + CTX_RING), RING_SIZE, 0); }
  return 0;
}

int fail_init(int ctx) {
  free_rx_resources(ctx);
  NdisFreeMemory(ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 1;
}

int initialize(void) {
  int cfg;
  int ctx;
  int mmio;
  int ring;
  int pktpool;
  int bufpool;
  int pkt;
  int bufd;
  int status;

  status = NdisOpenConfiguration(&cfg);
  if (status != 0) { return 1; }
  int mode = NdisReadConfiguration(cfg, "FullDuplex", 1);
  NdisCloseConfiguration(cfg);

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);
  *(ctx + CTX_RING) = 0;
  *(ctx + CTX_PKT) = 0;
  *(ctx + CTX_BUF) = 0;
  *(ctx + CTX_PKTPOOL) = 0;
  *(ctx + CTX_BUFPOOL) = 0;

  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_MMIO) = mmio;
  if (mode) { *(mmio + CSR0) = 3; } else { *(mmio + CSR0) = 1; }

  status = NdisAllocateMemoryWithTag(&ring, RING_SIZE, TAG);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_RING) = ring;

  status = NdisAllocatePacketPool(&pktpool, 16);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_PKTPOOL) = pktpool;

  status = NdisAllocateBufferPool(&bufpool, 16);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_BUFPOOL) = bufpool;

  status = NdisAllocatePacket(&pkt, pktpool);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_PKT) = pkt;

  status = NdisAllocateBuffer(&bufd, bufpool, ring, RING_SIZE);
  if (status != 0) { return fail_init(ctx); }
  *(ctx + CTX_BUF) = bufd;

  status = NdisMRegisterInterrupt(10);
  if (status != 0) { return fail_init(ctx); }
  return 0;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  NdisMDeregisterInterrupt();
  free_rx_resources(g_ctx);
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  return 0;
}
|} ^ common
