let common = {|
// ac97 -- Intel 82801AA (ICH) AC'97 controller miniport
const TAG       = 0x37394341;   // 'AC97'
const CTX_SIZE  = 256;
const BDL_SIZE  = 128;          // buffer descriptor list

const R_GLOB_STA = 0;
const R_GLOB_ACK = 4;
const R_PO_CIV   = 8;           // current index value
const R_PO_LVI   = 12;          // last valid index
const R_PO_CR    = 16;          // control
const R_CODEC    = 20;          // codec register window

const MIX_MASTER = 2;
const MIX_PCM    = 24;

int g_ctx;
int g_mmio;
int g_bdl;        // buffer descriptor list
int g_playing;
int g_pos_ptr;    // where the ISR records the playback position
int g_sync;
int g_volume;
int chars[6];

// Codec register access through the semaphore'd window; polling bounded
// like real drivers do.
int codec_read(int mmio, int reg) {
  *(mmio + R_CODEC) = (reg << 16) | (1 << 31);
  int tries;
  for (tries = 0; tries < 4; tries = tries + 1) {
    int v = *(mmio + R_CODEC);
    if ((v & (1 << 31)) == 0) {
      return v & 0xFFFF;
    }
  }
  return 0xFFFF;
}

int codec_write(int mmio, int reg, int value) {
  *(mmio + R_CODEC) = (reg << 16) | (value & 0xFFFF);
  return 0;
}

// Attenuation mapping: the AC'97 master register wants 1.5 dB steps,
// 0x00 = loudest, 0x3F = mute. Convert a 0..100 UI volume.
int volume_to_attenuation(int percent) {
  if (__ltu(100, percent)) { percent = 100; }
  int inv = 100 - percent;
  int att = (inv * 63) / 100;
  return att & 0x3F;
}

int set_master_volume(int mmio, int percent) {
  int att = volume_to_attenuation(percent);
  codec_write(mmio, MIX_MASTER, (att << 8) | att);
  return 0;
}

// Choose the DAC rate divisor for a requested sample rate; the part
// supports the standard set only, so snap to the closest one.
int snap_rate(int hz) {
  if (__ltu(hz, 11025)) { return 8000; }
  if (__ltu(hz, 22050)) { return 11025; }
  if (__ltu(hz, 32000)) { return 22050; }
  if (__ltu(hz, 44100)) { return 32000; }
  if (__ltu(hz, 48000)) { return 44100; }
  return 48000;
}

int program_dac_rate(int mmio, int hz) {
  int rate = snap_rate(hz);
  codec_write(mmio, 44, rate & 0xFFFF);   // PCM front DAC rate register
  return rate;
}

// Bring the codec out of reset and to a known mixer state.
int codec_init(int mmio) {
  codec_write(mmio, 0, 0);                // reset
  int tries;
  for (tries = 0; tries < 2; tries = tries + 1) {
    int ready = *(mmio + R_GLOB_STA);
    if (ready & 0x100) {                  // primary codec ready
      set_master_volume(mmio, 75);
      codec_write(mmio, MIX_PCM, 0x0808);
      program_dac_rate(mmio, 44100);
      return 0;
    }
  }
  return 1;
}

// Square-wave beep, used by the diagnostics entry points.
int write_beep(int dst, int len, int period) {
  if (period < 2) { period = 2; }
  int i;
  int level = 0x40;
  for (i = 0; i < len; i = i + 1) {
    if ((i % period) * 2 < period) { level = 0x40; } else { level = 0xC0; }
    __stb(dst + i, level);
  }
  return 0;
}

int stop(void) {
  g_playing = 0;
  if (g_mmio != 0) { *(g_mmio + R_PO_CR) = 0; }
  if (g_pos_ptr != 0) {
    ExFreePoolWithTag(g_pos_ptr, TAG);
    g_pos_ptr = 0;
  }
  return 0;
}

int halt(void) {
  stop();
  if (g_sync != 0) {
    PcUnregisterInterruptSync(g_sync);
    g_sync = 0;
  }
  if (g_bdl != 0) {
    ExFreePoolWithTag(g_bdl, TAG);
    g_bdl = 0;
  }
  if (g_ctx != 0) {
    ExFreePoolWithTag(g_ctx, TAG);
    g_ctx = 0;
  }
  return 0;
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

  int bdl = ExAllocatePoolWithTag(0, BDL_SIZE, TAG);
  if (bdl == 0) {
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_bdl = bdl;

  status = PcNewInterruptSync(&sync, isr, ctx);
  if (status != 0) {
    ExFreePoolWithTag(bdl, TAG);
    g_bdl = 0;
    ExFreePoolWithTag(ctx, TAG);
    g_ctx = 0;
    return 1;
  }
  g_sync = sync;

  if (codec_init(mmio)) {
    // codec never came ready: keep going with defaults, like the
    // shipping driver does, but log it
    KeGetCurrentIrql();
  }
  g_volume = codec_read(mmio, MIX_MASTER);
  write_beep(bdl, 32, 8);
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
  int sta = *(mmio + R_GLOB_STA);
  if ((sta & 0x40) == 0) { return 0; }
  *(mmio + R_GLOB_ACK) = sta;
  if (g_playing) {
    // BUG (race -> BSOD): g_pos_ptr is published by Play only after the
    // stream is started; an interrupt in between dereferences NULL.
    int civ = *(mmio + R_PO_CIV);
    *(g_pos_ptr + 0) = civ & 0x1F;
  }
  return 1;
}

int play(int buf, int len) {
  if (g_ctx == 0) { return 1; }
  if (g_mmio == 0) { return 1; }
  if (len < 4) { return 1; }
  if (__ltu(BDL_SIZE, len)) { len = BDL_SIZE; }

  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(g_bdl + i, __ldb(buf + i));
  }
  *(g_mmio + R_PO_LVI) = (len >> 2) & 0x1F;

  // BUG: the stream is started (and g_playing announced) before the
  // position pointer is set up.
  g_playing = 1;
  *(g_mmio + R_PO_CR) = 1;
  int pos = ExAllocatePoolWithTag(0, 16, TAG);
  if (pos == 0) {
    g_playing = 0;
    *(g_mmio + R_PO_CR) = 0;
    return 1;
  }
  g_pos_ptr = pos;
  return 0;
}
|} ^ common

let fixed_source = {|
int isr(int ctx) {
  int mmio = g_mmio;
  if (mmio == 0) { return 0; }
  int sta = *(mmio + R_GLOB_STA);
  if ((sta & 0x40) == 0) { return 0; }
  *(mmio + R_GLOB_ACK) = sta;
  if (g_playing && g_pos_ptr != 0) {
    int civ = *(mmio + R_PO_CIV);
    *(g_pos_ptr + 0) = civ & 0x1F;
  }
  return 1;
}

int play(int buf, int len) {
  if (g_ctx == 0) { return 1; }
  if (g_mmio == 0) { return 1; }
  if (len < 4) { return 1; }
  if (__ltu(BDL_SIZE, len)) { len = BDL_SIZE; }

  int pos = ExAllocatePoolWithTag(0, 16, TAG);
  if (pos == 0) { return 1; }

  int i;
  for (i = 0; i < len; i = i + 1) {
    __stb(g_bdl + i, __ldb(buf + i));
  }
  *(g_mmio + R_PO_LVI) = (len >> 2) & 0x1F;

  // Publish the position pointer before the stream can interrupt.
  g_pos_ptr = pos;
  g_playing = 1;
  *(g_mmio + R_PO_CR) = 1;
  return 0;
}
|} ^ common
