// AES-CMAC (NIST SP 800-38B / RFC 4493) and the 3GPP 128-EIA2 integrity
// algorithm built on it (TS 33.401 Annex B.2.3).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace seed::crypto {

/// Derives the CMAC subkeys K1/K2 from an expanded key schedule
/// (SP 800-38B §6.1). Cache these alongside the Aes128 to MAC many
/// messages under one key without re-deriving.
void cmac_subkeys(const Aes128& aes, Block& k1, Block& k2);

/// Full 128-bit AES-CMAC tag over the logical concatenation
/// `header || message`, against pre-derived subkeys, without
/// materializing it (the EIA2 path MACs an 8-byte COUNT/BEARER/DIRECTION
/// header ahead of the payload). Plain CMAC passes an empty header.
Block aes_cmac_seg(const Aes128& aes, const Block& k1, const Block& k2,
                   BytesView header, BytesView message);

/// 3GPP 128-EIA2: 32-bit MAC over COUNT(32) || BEARER(5)|padding || DIRECTION
/// prepended as an 8-byte header, per TS 33.401. `direction` is 0 (uplink)
/// or 1 (downlink); `bearer` is 5 bits. Runs against a cached key
/// schedule + subkeys: no per-call expansion, no header-copy of the
/// message, no allocation.
std::uint32_t eia2_mac(const Aes128& aes, const Block& k1, const Block& k2,
                       std::uint32_t count, std::uint8_t bearer,
                       std::uint8_t direction, BytesView message);

}  // namespace seed::crypto
