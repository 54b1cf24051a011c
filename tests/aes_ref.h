// Byte-wise reference AES-128 (FIPS-197 §5.1): SubBytes, ShiftRows,
// MixColumns and AddRoundKey run one byte at a time, exactly as the
// standard writes them. Kept as the oracle for the word-oriented T-table
// cipher in crypto/aes.cc; it shares no code with it, not even the S-box.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes.h"

namespace seed::test {

namespace aes_ref_detail {

constexpr std::array<std::uint8_t, 256> kSbox = [] {
  // Multiplicative inverse in GF(2^8), via exp/log tables on generator 3,
  // followed by the affine transform.
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> exp{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[static_cast<std::size_t>(i)] = x;
    log[x] = static_cast<std::uint8_t>(i);
    const std::uint8_t x2 =
        static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
    x = static_cast<std::uint8_t>(x2 ^ x);
  }
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv = 0;
    if (i != 0) {
      inv = exp[static_cast<std::size_t>(
          (255 - log[static_cast<std::size_t>(i)]) % 255)];
    }
    std::uint8_t s = inv;
    std::uint8_t res = s;
    for (int k = 0; k < 4; ++k) {
      s = static_cast<std::uint8_t>((s << 1) | (s >> 7));
      res ^= s;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(res ^ 0x63);
  }
  return sbox;
}();

constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t v) {
  return static_cast<std::uint8_t>((v << 1) ^ ((v & 0x80) ? 0x1b : 0x00));
}

}  // namespace aes_ref_detail

/// Encrypts `s` in place under `key` with the byte-wise cipher.
inline void aes128_encrypt_ref(const crypto::Key128& key, crypto::Block& s) {
  using aes_ref_detail::kRcon;
  using aes_ref_detail::kSbox;
  using aes_ref_detail::xtime;

  // Key expansion (FIPS-197 §5.2): 11 round keys of 16 bytes.
  std::array<std::uint8_t, 176> rk{};
  for (std::size_t i = 0; i < 16; ++i) rk[i] = key[i];
  for (std::size_t i = 4; i < 44; ++i) {
    std::array<std::uint8_t, 4> temp = {rk[4 * (i - 1)], rk[4 * (i - 1) + 1],
                                        rk[4 * (i - 1) + 2],
                                        rk[4 * (i - 1) + 3]};
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) {
      rk[4 * i + j] = static_cast<std::uint8_t>(rk[4 * (i - 4) + j] ^ temp[j]);
    }
  }

  auto add_round_key = [&](std::size_t round) {
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= rk[16 * round + i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: s[col*4 + row].
    const crypto::Block t = s;
    for (std::size_t r = 1; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        s[c * 4 + r] = t[((c + r) % 4) * 4 + r];
      }
    }
  };
  auto mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t base = c * 4;
      const std::uint8_t a0 = s[base], a1 = s[base + 1], a2 = s[base + 2],
                         a3 = s[base + 3];
      s[base] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      s[base + 1] =
          static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      s[base + 2] =
          static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      s[base + 3] =
          static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (std::size_t round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

}  // namespace seed::test
