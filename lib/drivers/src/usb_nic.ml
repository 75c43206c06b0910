let common = {|
// usbnic -- USB 2.0 Ethernet adapter miniport (rtl8150-class)
const TAG       = 0x55534238;
const CTX_SIZE  = 256;
const URB_SIZE  = 32;
const SLOT_SIZE = 64;
const RX_SLOTS  = 4;

// urb word offsets
const U_EP   = 0;
const U_DIR  = 4;
const U_BUF  = 8;
const U_LEN  = 12;
const U_STS  = 16;
const U_ACT  = 20;

int g_ctx;
int g_rx_ring;     // RX_SLOTS slots of SLOT_SIZE bytes
int g_rx_urb;
int g_ready;       // completion handler may touch the ring only when set
int g_stats_rx;
int g_stats_tx;
int chars[8];

int submit_rx(int ctx) {
  *(g_rx_urb + U_EP) = 1;
  *(g_rx_urb + U_DIR) = 1;                  // IN
  *(g_rx_urb + U_BUF) = g_rx_ring;
  *(g_rx_urb + U_LEN) = SLOT_SIZE;
  return UsbSubmitUrb(g_rx_urb);
}

int send(int pkt, int len) {
  if (g_ctx == 0) { return 1; }
  if (len < 14) { return 1; }
  int urb;
  int status = NdisAllocateMemoryWithTag(&urb, URB_SIZE, TAG);
  if (status != 0) { return 1; }
  *(urb + U_EP) = 2;
  *(urb + U_DIR) = 0;                       // OUT
  *(urb + U_BUF) = pkt;
  *(urb + U_LEN) = len;
  status = UsbSubmitUrb(urb);
  NdisFreeMemory(urb, URB_SIZE, 0);
  if (status != 0) { return 1; }
  g_stats_tx = g_stats_tx + 1;
  return 0;
}

int query(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == 1) { *buf = 2; return 0; }
  if (oid == 2) { *buf = g_stats_rx; return 0; }
  return 4;
}

int set_information(int oid, int buf, int len) {
  if (len < 4) { return 2; }
  if (oid == 2) { g_stats_rx = 0; return 0; }
  return 4;
}

int halt(void) {
  if (g_ctx == 0) { return 0; }
  UsbUnregisterInterruptEndpoint(1);
  if (g_rx_urb != 0) { NdisFreeMemory(g_rx_urb, URB_SIZE, 0); g_rx_urb = 0; }
  if (g_rx_ring != 0) {
    NdisFreeMemory(g_rx_ring, SLOT_SIZE * RX_SLOTS, 0);
    g_rx_ring = 0;
  }
  NdisFreeMemory(g_ctx, CTX_SIZE, 0);
  g_ctx = 0;
  g_ready = 0;
  return 0;
}

int driver_entry(void) {
  chars[0] = initialize;
  chars[1] = query;
  chars[2] = set_information;
  chars[3] = send;
  chars[6] = halt;
  return NdisMRegisterMiniport(chars);
}
|}

let source = {|
int rx_complete(int ctx) {
  // BUG (race): touches the ring without checking g_ready -- the
  // interrupt endpoint is live before initialization publishes the ring.
  int n = *(g_rx_urb + U_ACT);
  // BUG (memory corruption): the device-reported actual length indexes
  // into the current (last) ring slot unchecked; a malfunctioning or
  // malicious device walks right off the end of the ring.
  __stb(g_rx_ring + (RX_SLOTS - 1) * SLOT_SIZE + n, 0);
  g_stats_rx = g_stats_rx + 1;
  return 1;
}

int initialize(void) {
  int ctx;
  int desc[5];
  int status;

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  int got = UsbGetDeviceDescriptor(desc, 18);
  if (got < 18) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  status = NdisAllocateMemoryWithTag(&g_rx_urb, URB_SIZE, TAG);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  // BUG window: the completion handler is registered before the receive
  // ring exists and before g_ready is set.
  status = UsbRegisterInterruptEndpoint(1, rx_complete, ctx);
  if (status != 0) {
    NdisFreeMemory(g_rx_urb, URB_SIZE, 0);
    g_rx_urb = 0;
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  status = NdisAllocateMemoryWithTag(&g_rx_ring, SLOT_SIZE * RX_SLOTS, TAG);
  if (status != 0) {
    UsbUnregisterInterruptEndpoint(1);
    NdisFreeMemory(g_rx_urb, URB_SIZE, 0);
    g_rx_urb = 0;
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  g_ready = 1;
  submit_rx(ctx);
  return 0;
}
|} ^ common

let fixed_source = {|
int rx_complete(int ctx) {
  if (g_ready == 0) { return 0; }
  int n = *(g_rx_urb + U_ACT);
  if (__ltu(SLOT_SIZE - 1, n)) { n = SLOT_SIZE - 1; }
  __stb(g_rx_ring + (RX_SLOTS - 1) * SLOT_SIZE + n, 0);
  g_stats_rx = g_stats_rx + 1;
  return 1;
}

int initialize(void) {
  int ctx;
  int desc[5];
  int status;

  status = NdisAllocateMemoryWithTag(&ctx, CTX_SIZE, TAG);
  if (status != 0) { return 1; }
  g_ctx = ctx;
  NdisMSetAttributes(ctx);

  int got = UsbGetDeviceDescriptor(desc, 18);
  if (got < 18) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  status = NdisAllocateMemoryWithTag(&g_rx_urb, URB_SIZE, TAG);
  if (status != 0) {
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }

  status = NdisAllocateMemoryWithTag(&g_rx_ring, SLOT_SIZE * RX_SLOTS, TAG);
  if (status != 0) {
    NdisFreeMemory(g_rx_urb, URB_SIZE, 0);
    g_rx_urb = 0;
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  g_ready = 1;

  // The handler goes live only after everything it touches exists.
  status = UsbRegisterInterruptEndpoint(1, rx_complete, ctx);
  if (status != 0) {
    g_ready = 0;
    NdisFreeMemory(g_rx_ring, SLOT_SIZE * RX_SLOTS, 0);
    g_rx_ring = 0;
    NdisFreeMemory(g_rx_urb, URB_SIZE, 0);
    g_rx_urb = 0;
    NdisFreeMemory(ctx, CTX_SIZE, 0);
    g_ctx = 0;
    return 1;
  }
  submit_rx(ctx);
  return 0;
}
|} ^ common
