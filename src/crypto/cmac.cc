#include "crypto/cmac.h"

#include "obs/prof.h"

namespace seed::crypto {

namespace {

// Left-shift a 128-bit block by one bit; returns the shifted-out MSB.
Block shift_left(const Block& in, bool& carry_out) {
  Block out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = static_cast<std::uint8_t>((in[idx] << 1) | carry);
    carry = static_cast<std::uint8_t>(in[idx] >> 7);
  }
  carry_out = carry != 0;
  return out;
}

Block generate_subkey(const Block& l) {
  bool carry = false;
  Block k = shift_left(l, carry);
  if (carry) k[15] ^= 0x87;  // Rb for 128-bit blocks
  return k;
}

}  // namespace

void cmac_subkeys(const Aes128& aes, Block& k1, Block& k2) {
  Block zero{};
  const Block l = aes.encrypt(zero);
  k1 = generate_subkey(l);
  k2 = generate_subkey(k1);
}

Block aes_cmac_seg(const Aes128& aes, const Block& k1, const Block& k2,
                   BytesView header, BytesView message) {
  const std::size_t h = header.size();
  const std::size_t total = h + message.size();
  const std::size_t full_blocks = total == 0 ? 0 : (total - 1) / 16;
  Block x{};  // running CBC state

  // XORs logical bytes [off, off+len) of header||message into dst.
  const auto absorb = [&](std::size_t off, std::size_t len, Block& dst) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t p = off + i;
      dst[i] ^= p < h ? header[p] : message[p - h];
    }
  };

  for (std::size_t b = 0; b < full_blocks; ++b) {
    absorb(b * 16, 16, x);
    aes.encrypt_block(x);
  }

  // Last block: complete -> XOR K1; partial/empty -> pad 10* and XOR K2.
  Block last{};
  const std::size_t tail_off = full_blocks * 16;
  const std::size_t tail_len = total - tail_off;
  if (total > 0 && tail_len == 16) {
    absorb(tail_off, 16, last);
    for (std::size_t i = 0; i < 16; ++i) last[i] ^= k1[i];
  } else {
    absorb(tail_off, tail_len, last);
    last[tail_len] = 0x80;
    for (std::size_t i = 0; i < 16; ++i) last[i] ^= k2[i];
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] ^= last[i];
  aes.encrypt_block(x);
  return x;
}

std::uint32_t eia2_mac(const Aes128& aes, const Block& k1, const Block& k2,
                       std::uint32_t count, std::uint8_t bearer,
                       std::uint8_t direction, BytesView message) {
  PROF_ZONE("crypto.eia2");
  PROF_BYTES(message.size());
  const std::uint8_t header[8] = {
      static_cast<std::uint8_t>(count >> 24),
      static_cast<std::uint8_t>(count >> 16),
      static_cast<std::uint8_t>(count >> 8),
      static_cast<std::uint8_t>(count),
      static_cast<std::uint8_t>(((bearer & 0x1f) << 3) |
                                ((direction & 0x01) << 2)),
      0, 0, 0};
  const Block tag = aes_cmac_seg(aes, k1, k2, BytesView(header, 8), message);
  return (static_cast<std::uint32_t>(tag[0]) << 24) |
         (static_cast<std::uint32_t>(tag[1]) << 16) |
         (static_cast<std::uint32_t>(tag[2]) << 8) | tag[3];
}

}  // namespace seed::crypto
