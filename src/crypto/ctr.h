// AES-CTR keystream cipher and the 3GPP 128-EEA2 confidentiality algorithm
// (TS 33.401 Annex B.1.3).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace seed::crypto {

/// Big-endian increment of a full 128-bit counter block (wraps at 2^128).
void ctr_increment_be(Block& counter);

/// Scalar one-block-at-a-time reference AES-128-CTR: XORs `data` with the
/// keystream generated from `initial_counter` (big-endian increment of
/// the full 128-bit block). Retained as the oracle for the property
/// suite; the batched path below must be byte-identical to it for every
/// length and counter boundary.
Bytes aes_ctr_ref(const Key128& key, const Block& initial_counter,
                  BytesView data);

/// Batched AES-128-CTR: generates keystream in multi-block runs against a
/// pre-expanded key schedule and XORs it into `out` (caller-provided,
/// at least `in.size()` bytes). In-place operation (`out == in.data()`)
/// is supported; each byte is read before it is written.
void aes_ctr_xor(const Aes128& aes, Block counter, BytesView in,
                 std::uint8_t* out);

/// 3GPP 128-EEA2: the initial counter block is
/// COUNT(32) || BEARER(5)||DIRECTION(1)||26 zero bits || 64 zero bits.
/// Encryption and decryption are the same operation. Runs against a
/// cached key schedule and XORs the keystream over `in` into `out` (at
/// least `in.size()` bytes; in-place allowed); allocates nothing.
void eea2_crypt_into(const Aes128& aes, std::uint32_t count,
                     std::uint8_t bearer, std::uint8_t direction, BytesView in,
                     std::uint8_t* out);

}  // namespace seed::crypto
