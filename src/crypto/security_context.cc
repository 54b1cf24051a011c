#include "crypto/security_context.h"

#include "crypto/cmac.h"
#include "crypto/ctr.h"

namespace seed::crypto {

SecurityContext::SecurityContext(const Key128& key, std::uint8_t bearer)
    : aes_(key), bearer_(bearer) {
  cmac_subkeys(aes_, k1_, k2_);
}

void SecurityContext::protect_into(BytesView plaintext, Direction dir,
                                   Bytes& frame) {
  const auto d = static_cast<std::uint8_t>(dir);
  const std::uint32_t count = tx_count_[d]++;
  frame.resize(kOverhead + plaintext.size());
  frame[0] = static_cast<std::uint8_t>(count >> 8);
  frame[1] = static_cast<std::uint8_t>(count);
  eea2_crypt_into(aes_, count, bearer_, d, plaintext, frame.data() + 2);
  const BytesView cipher(frame.data() + 2, plaintext.size());
  // 16-bit truncation of the 32-bit EIA2 MAC.
  const std::uint16_t mac = static_cast<std::uint16_t>(
      eia2_mac(aes_, k1_, k2_, count, bearer_, d, cipher) >> 16);
  frame[frame.size() - 2] = static_cast<std::uint8_t>(mac >> 8);
  frame[frame.size() - 1] = static_cast<std::uint8_t>(mac);
}

bool SecurityContext::unprotect_into(BytesView frame, Direction dir,
                                     Bytes& plain) {
  if (frame.size() < kOverhead) return false;
  const auto d = static_cast<std::uint8_t>(dir);
  // Reconstruct the full 32-bit counter from the 16-bit wire value using
  // the highest counter seen so far (window-based extension).
  const std::uint16_t wire_count =
      static_cast<std::uint16_t>((frame[0] << 8) | frame[1]);
  const std::uint32_t base =
      rx_high_[d] < 0 ? 0
                      : static_cast<std::uint32_t>(rx_high_[d]) & 0xffff0000u;
  std::uint32_t count = base | wire_count;
  if (rx_high_[d] >= 0 &&
      wire_count <= (static_cast<std::uint32_t>(rx_high_[d]) & 0xffffu) &&
      count <= static_cast<std::uint32_t>(rx_high_[d])) {
    count += 0x10000u;  // wrapped epoch
  }
  if (static_cast<std::int64_t>(count) <= rx_high_[d]) {
    return false;  // replay or stale
  }
  const BytesView cipher = frame.subspan(2, frame.size() - 4);
  const std::uint16_t mac_recv = static_cast<std::uint16_t>(
      (frame[frame.size() - 2] << 8) | frame[frame.size() - 1]);
  const std::uint16_t mac_calc = static_cast<std::uint16_t>(
      eia2_mac(aes_, k1_, k2_, count, bearer_, d, cipher) >> 16);
  if (mac_recv != mac_calc) return false;
  rx_high_[d] = count;
  plain.resize(cipher.size());
  eea2_crypt_into(aes_, count, bearer_, d, cipher, plain.data());
  return true;
}

}  // namespace seed::crypto
