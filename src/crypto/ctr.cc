#include "crypto/ctr.h"

#include <algorithm>

#include "obs/prof.h"

namespace seed::crypto {

void ctr_increment_be(Block& counter) {
  for (int i = 15; i >= 0; --i) {
    if (++counter[static_cast<std::size_t>(i)] != 0) break;
  }
}

namespace {

// Keystream batch width: enough blocks to keep the XOR loop out of the
// per-block call overhead, small enough to live on the stack.
constexpr std::size_t kBatchBlocks = 8;

}  // namespace

void aes_ctr_xor(const Aes128& aes, Block counter, BytesView in,
                 std::uint8_t* out) {
  std::size_t pos = 0;
  const std::size_t n = in.size();
  alignas(16) std::uint8_t ks[kBatchBlocks * 16];
  while (pos < n) {
    // Generate up to kBatchBlocks of keystream in one run, then XOR the
    // whole batch. Reading in[i] before writing out[i] keeps in-place
    // operation (out == in.data()) correct.
    const std::size_t want = n - pos;
    const std::size_t blocks = std::min(kBatchBlocks, (want + 15) / 16);
    for (std::size_t b = 0; b < blocks; ++b) {
      Block blk = counter;
      aes.encrypt_block(blk);
      std::copy(blk.begin(), blk.end(), ks + b * 16);
      ctr_increment_be(counter);
    }
    const std::size_t take = std::min(want, blocks * 16);
    for (std::size_t i = 0; i < take; ++i) out[pos + i] = in[pos + i] ^ ks[i];
    pos += take;
  }
}

Bytes aes_ctr_ref(const Key128& key, const Block& initial_counter,
                  BytesView data) {
  const Aes128 aes(key);
  Block counter = initial_counter;
  Bytes out(data.size());
  std::size_t pos = 0;
  while (pos < data.size()) {
    const Block keystream = aes.encrypt(counter);
    const std::size_t n = std::min<std::size_t>(16, data.size() - pos);
    for (std::size_t i = 0; i < n; ++i) out[pos + i] = data[pos + i] ^ keystream[i];
    pos += n;
    ctr_increment_be(counter);
  }
  return out;
}

namespace {

Block eea2_iv(std::uint32_t count, std::uint8_t bearer,
              std::uint8_t direction) {
  Block iv{};
  iv[0] = static_cast<std::uint8_t>(count >> 24);
  iv[1] = static_cast<std::uint8_t>(count >> 16);
  iv[2] = static_cast<std::uint8_t>(count >> 8);
  iv[3] = static_cast<std::uint8_t>(count);
  iv[4] = static_cast<std::uint8_t>(((bearer & 0x1f) << 3) |
                                    ((direction & 0x01) << 2));
  return iv;
}

}  // namespace

void eea2_crypt_into(const Aes128& aes, std::uint32_t count,
                     std::uint8_t bearer, std::uint8_t direction, BytesView in,
                     std::uint8_t* out) {
  PROF_ZONE("crypto.eea2");
  PROF_BYTES(in.size());
  aes_ctr_xor(aes, eea2_iv(count, bearer, direction), in, out);
}

}  // namespace seed::crypto
