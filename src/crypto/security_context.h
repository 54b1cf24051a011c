// SEED's covert-channel protection: 128-EEA2 encryption + 128-EIA2
// integrity with a monotonically increasing counter, keyed by the
// pre-shared in-SIM key (paper §4.5, §6, §7.3).
//
// Frame layout: COUNT(2) || ciphertext || MAC(2).
// The counter is 16-bit on the wire (the diagnosis channel carries few
// messages; SIM and core track the full 32-bit value internally) and the
// EIA2 MAC is truncated to 16 bits — both standard moves for byte-starved
// channels like the 16-byte AUTN field (paper: "The 16B AUTH suffices to
// hold the cause code and most updated configurations").
// The receiver enforces a strictly-increasing counter (replay protection).
//
// The context owns one expanded AES-128 key schedule plus the CMAC
// subkeys, built once at construction and reused by EEA2 and EIA2 across
// every message — the steady-state path never re-expands the key.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace seed::crypto {

enum class Direction : std::uint8_t { kUplink = 0, kDownlink = 1 };

class SecurityContext {
 public:
  /// `bearer` tags the logical channel (diag channel uses a reserved id).
  SecurityContext(const Key128& key, std::uint8_t bearer);

  /// Protects a plaintext: encrypt, MAC, prepend counter. Each call
  /// consumes one counter value for `dir`. Writes COUNT||cipher||MAC into
  /// `frame` (resized to plaintext.size() + kOverhead; no allocation once
  /// the buffer's capacity has warmed up). `plaintext` must not alias
  /// `frame`.
  void protect_into(BytesView plaintext, Direction dir, Bytes& frame);

  /// Verifies and decrypts a frame: on success writes the plaintext into
  /// `plain` and returns true. Returns false on truncated frames, bad
  /// MAC, or replayed/stale counters. `frame` must not alias `plain`.
  bool unprotect_into(BytesView frame, Direction dir, Bytes& plain);

  std::uint32_t tx_count(Direction dir) const {
    return tx_count_[static_cast<std::size_t>(dir)];
  }

  /// Minimum overhead added to a plaintext (counter + MAC).
  static constexpr std::size_t kOverhead = 4;

 private:
  Aes128 aes_;        // expanded once, shared by EEA2 + EIA2
  Block k1_, k2_;     // CMAC subkeys for the cached EIA2 path
  std::uint8_t bearer_;
  std::uint32_t tx_count_[2] = {0, 0};
  // Highest counter accepted so far per direction; -1 = none yet.
  std::int64_t rx_high_[2] = {-1, -1};
};

}  // namespace seed::crypto
