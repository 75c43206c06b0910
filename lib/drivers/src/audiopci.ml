let common = {|
// audiopci -- Ensoniq ES1370-style PCI sound device miniport
const TAG       = 0x31333730;   // '1370'
const CTX_SIZE  = 192;
const DMA_SIZE  = 256;

const R_STATUS  = 0;
const R_ACK     = 4;
const R_SAMPLE  = 8;
const R_DAC     = 12;
const R_CTRL    = 16;

int g_ctx;
int g_mmio;
int g_dma;        // DMA staging buffer, touched by the ISR
int g_sync;
int g_playing;
int g_cur;        // buffer currently being played
int g_pos;
int chars[6];

// The ES1370's sample-rate converter is programmed through a tiny
// register file; compute the phase increment for a target rate.
int src_phase_increment(int hz) {
  if (__ltu(48000, hz)) { hz = 48000; }
  if (__ltu(hz, 4000)) { hz = 4000; }
  return (hz << 16) / 3000;
}

int program_src(int mmio, int hz) {
  int inc = src_phase_increment(hz);
  *(mmio + R_SAMPLE) = inc;
  return inc;
}

// Mixer: AK4531-style attenuation, 0..31 per channel.
int set_dac_volume(int mmio, int left, int right) {
  if (__ltu(31, left)) { left = 31; }
  if (__ltu(31, right)) { right = 31; }
  *(mmio + R_CTRL + 16) = (left << 8) | right;
  return 0;
}

// Negotiate a playback format word: bit0 stereo, bit1 16-bit.
int negotiate_format(int channels, int bits) {
  int fmt = 0;
  if (channels == 2) { fmt = fmt | 1; }
  if (bits == 16) { fmt = fmt | 2; }
  if (channels != 1 && channels != 2) { return 0 - 1; }
  if (bits != 8 && bits != 16) { return 0 - 1; }
  return fmt;
}

int apply_format(int mmio, int channels, int bits) {
  int fmt = negotiate_format(channels, bits);
  if (fmt < 0) { return 1; }
  *(mmio + R_CTRL + 20) = fmt;
  return 0;
}

int stop(void) {
  g_playing = 0;
  if (g_mmio != 0) { *(g_mmio + R_CTRL) = 0; }
  if (g_cur != 0) {
    ExFreePoolWithTag(g_cur, TAG);
    g_cur = 0;
  }
  return 0;
}

int halt(void) {
  stop();
  if (g_sync != 0) {
    PcUnregisterInterruptSync(g_sync);
    g_sync = 0;
  }
  if (g_dma != 0) {
    ExFreePoolWithTag(g_dma, TAG);
    g_dma = 0;
  }
  if (g_ctx != 0) {
    ExFreePoolWithTag(g_ctx, TAG);
    g_ctx = 0;
  }
  return 0;
}

int driver_entry(void) {
  chars[0] = initialize;
  chars[1] = play;
  chars[2] = stop;
  chars[3] = 0;
  chars[4] = 0;
  chars[5] = halt;
  return PcRegisterMiniport(chars);
}
|}

let source = {|
int isr(int ctx) {
  int mmio = g_mmio;
  if (mmio == 0) { return 0; }
  int status = *(mmio + R_STATUS);
  if ((status & 1) == 0) { return 0; }
  *(mmio + R_ACK) = status;
  // BUG (race in init): the DMA staging buffer is touched without a
  // guard; an interrupt during initialization arrives before it exists.
  *(g_dma + 0) = status;
  if (g_playing) {
    // BUG (race while playing): playback is announced before the
    // current-buffer pointer is published.
    *(g_cur + 0) = *(g_cur + 0) + 1;
    g_pos = g_pos + 4;
  }
  return 1;
}

// Shared error path: logs the failure into the scratch block.
int record_failure(int scratch, int code) {
  // BUG (segfault): called on the path where scratch is NULL, despite the
  // allocation having been checked at the call site.
  *(scratch + 0) = code;
  return 1;
}

int initialize(void) {
  int ctx;
  int sync;
  int status;

  ctx = ExAllocatePoolWithTag(0, CTX_SIZE, TAG);
  if (ctx == 0) { return 1; }
  g_ctx = ctx;

  int mmio;
  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_mmio = mmio;
  program_src(mmio, 44100);
  set_dac_volume(mmio, 4, 4);
  apply_format(mmio, 2, 16);

  int scratch = ExAllocatePoolWithTag(0, 64, TAG);
  if (scratch == 0) {
    // checked here ... but record_failure dereferences it anyway
    record_failure(scratch, 7);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }

  status = PcNewInterruptSync(&sync, isr, ctx);
  if (status != 0) {
    // BUG (segfault): on failure sync is NULL, yet the error path pokes
    // a field inside the sync object.
    *(sync + 4) = 0;
    ExFreePoolWithTag(scratch, TAG);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_sync = sync;

  // BUG window (race in init): the ISR is registered and live against a
  // mapped device, but g_dma is NULL until the next allocation completes.
  int dma = ExAllocatePoolWithTag(0, DMA_SIZE, TAG);
  if (dma == 0) {
    PcUnregisterInterruptSync(sync);
    g_sync = 0;
    ExFreePoolWithTag(scratch, TAG);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_dma = dma;

  ExFreePoolWithTag(scratch, TAG);
  return 0;
}

int play(int buf, int len) {
  if (g_ctx == 0) { return 1; }
  if (g_mmio == 0) { return 1; }
  if (len < 4) { return 1; }
  if (__ltu(DMA_SIZE, len)) { len = DMA_SIZE; }

  // BUG (race while playing): g_playing is visible to the ISR before
  // g_cur is published.
  g_playing = 1;
  int staging = ExAllocatePoolWithTag(0, DMA_SIZE, TAG);
  if (staging == 0) {
    g_playing = 0;
    return 1;
  }
  g_cur = staging;
  g_pos = 0;

  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(staging + i, __ldb(buf + i));
  }
  *(g_mmio + R_DAC) = staging;
  *(g_mmio + R_CTRL) = 1;
  return 0;
}
|} ^ common

let fixed_source = {|
int isr(int ctx) {
  int mmio = g_mmio;
  if (mmio == 0) { return 0; }
  int status = *(mmio + R_STATUS);
  if ((status & 1) == 0) { return 0; }
  *(mmio + R_ACK) = status;
  if (g_dma != 0) {
    *(g_dma + 0) = status;
  }
  if (g_playing && g_cur != 0) {
    *(g_cur + 0) = *(g_cur + 0) + 1;
    g_pos = g_pos + 4;
  }
  return 1;
}

int record_failure(int scratch, int code) {
  if (scratch != 0) { *(scratch + 0) = code; }
  return 1;
}

int initialize(void) {
  int ctx;
  int sync;
  int status;

  ctx = ExAllocatePoolWithTag(0, CTX_SIZE, TAG);
  if (ctx == 0) { return 1; }
  g_ctx = ctx;

  int scratch = ExAllocatePoolWithTag(0, 64, TAG);
  if (scratch == 0) {
    record_failure(scratch, 7);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }

  // The DMA buffer exists before the ISR can observe the device.
  int dma = ExAllocatePoolWithTag(0, DMA_SIZE, TAG);
  if (dma == 0) {
    ExFreePoolWithTag(scratch, TAG);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_dma = dma;

  status = PcNewInterruptSync(&sync, isr, ctx);
  if (status != 0) {
    ExFreePoolWithTag(dma, TAG);
    g_dma = 0;
    ExFreePoolWithTag(scratch, TAG);
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_sync = sync;

  int mmio;
  status = NdisMMapIoSpace(&mmio, 0);
  if (status != 0) {
    halt();
    ExFreePoolWithTag(scratch, TAG);
    return 1;
  }
  g_mmio = mmio;
  program_src(mmio, 44100);
  set_dac_volume(mmio, 4, 4);
  apply_format(mmio, 2, 16);

  ExFreePoolWithTag(scratch, TAG);
  return 0;
}

int play(int buf, int len) {
  if (g_ctx == 0) { return 1; }
  if (g_mmio == 0) { return 1; }
  if (len < 4) { return 1; }
  if (__ltu(DMA_SIZE, len)) { len = DMA_SIZE; }

  int staging = ExAllocatePoolWithTag(0, DMA_SIZE, TAG);
  if (staging == 0) { return 1; }
  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(staging + i, __ldb(buf + i));
  }
  // Publish the buffer before announcing playback to the ISR.
  g_cur = staging;
  g_pos = 0;
  g_playing = 1;
  *(g_mmio + R_DAC) = staging;
  *(g_mmio + R_CTRL) = 1;
  return 0;
}
|} ^ common
