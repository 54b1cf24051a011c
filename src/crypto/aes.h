// AES-128 block cipher (FIPS-197), encryption direction only — CTR and
// CMAC modes, and Milenage, need only the forward transform.
//
// Implemented from scratch: each round is four 32-bit T-table lookups per
// column, with the tables built at compile time from the S-box. No
// external crypto dependency. Not hardened against cache-timing side
// channels: this is a simulation substrate, not a production SIM.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace seed::crypto {

using Block = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(Block& block) const;

  /// Convenience: encrypts and returns a copy.
  Block encrypt(const Block& block) const;

 private:
  // 11 round keys of four big-endian words each (FIPS-197 w[0..43]).
  std::array<std::uint32_t, 44> round_keys_{};
};

/// Builds a Block from a view; throws std::invalid_argument unless 16 bytes.
Block to_block(BytesView data);

/// Builds a Key128 from a view; throws std::invalid_argument unless 16 bytes.
Key128 to_key(BytesView data);

}  // namespace seed::crypto
