// Crypto hot-path microbench: 128-EEA2 and 128-EIA2 throughput at the
// message sizes the SEED covert channels actually carry (16 B fragments,
// 64 B reports, 512 B configs, 1500 B MTU-sized frames), comparing the
// cold path (per-call AES key expansion and CMAC subkey derivation, plus a
// fresh output buffer per call) against the cached path (key schedule +
// CMAC subkeys derived once, keystream XORed into a reused buffer). Prints
// a MB/s table and writes BENCH_crypto.json.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/ctr.h"

namespace {

using namespace seed;
using namespace seed::crypto;

Key128 bench_key() {
  Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i);
  return k;
}

/// Measures `fn(iteration)` over enough iterations to fill ~20 ms, best
/// of three trials, and returns MB/s for `bytes_per_op` payload bytes.
template <class Fn>
double throughput_mb_s(std::size_t bytes_per_op, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Calibrate: grow the iteration count until one trial takes >= 20 ms.
  std::uint64_t iters = 256;
  double best_s = 0.0;
  for (int trial = 0; trial < 3;) {
    const auto t0 = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn(static_cast<std::uint32_t>(i));
    const double secs = std::chrono::duration<double>(clock::now() - t0).count();
    if (secs < 0.02 && iters < (1ULL << 24)) {
      iters *= 4;
      continue;  // calibration pass, not a counted trial
    }
    const double per_iter = secs / static_cast<double>(iters);
    if (trial == 0 || per_iter < best_s) best_s = per_iter;
    ++trial;
  }
  return static_cast<double>(bytes_per_op) / best_s / 1e6;
}

volatile std::uint32_t g_sink;  // defeats dead-code elimination

struct Row {
  const char* algo;
  std::size_t bytes;
  double cold_mb_s;
  double cached_mb_s;
};

}  // namespace

int main() {
  const Key128 k = bench_key();
  const Aes128 aes(k);
  Block k1, k2;
  cmac_subkeys(aes, k1, k2);

  std::vector<Row> rows;
  std::cout << "crypto hot paths: cold (per-call key schedule, allocating)"
               " vs cached (expanded once, in-place)\n";
  std::printf("  %-6s %8s %14s %14s %9s\n", "algo", "bytes", "cold MB/s",
              "cached MB/s", "speedup");

  for (const std::size_t len : {16u, 64u, 512u, 1500u}) {
    Bytes data(len, 0xa5);
    Bytes out(len);

    const double eea2_cold = throughput_mb_s(len, [&](std::uint32_t c) {
      const Aes128 cold(k);
      Bytes ct(data.size());
      eea2_crypt_into(cold, c, 7, 1, data, ct.data());
      g_sink = ct.empty() ? 0u : ct[0];
    });
    const double eea2_cached = throughput_mb_s(len, [&](std::uint32_t c) {
      eea2_crypt_into(aes, c, 7, 1, data, out.data());
      g_sink = out[0];
    });
    rows.push_back({"eea2", len, eea2_cold, eea2_cached});

    const double eia2_cold = throughput_mb_s(len, [&](std::uint32_t c) {
      const Aes128 cold(k);
      Block s1, s2;
      cmac_subkeys(cold, s1, s2);
      g_sink = eia2_mac(cold, s1, s2, c, 7, 0, data);
    });
    const double eia2_cached = throughput_mb_s(len, [&](std::uint32_t c) {
      g_sink = eia2_mac(aes, k1, k2, c, 7, 0, data);
    });
    rows.push_back({"eia2", len, eia2_cold, eia2_cached});
  }

  for (const Row& r : rows) {
    std::printf("  %-6s %8zu %14.1f %14.1f %8.2fx\n", r.algo, r.bytes,
                r.cold_mb_s, r.cached_mb_s, r.cached_mb_s / r.cold_mb_s);
  }

  std::ofstream json("BENCH_crypto.json", std::ios::trunc);
  json << "{\"bench\":\"crypto_hotpath\",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (i) json << ",";
    json << "\n  {\"algo\":\"" << r.algo << "\",\"bytes\":" << r.bytes
         << ",\"cold_mb_s\":" << static_cast<std::uint64_t>(r.cold_mb_s)
         << ",\"cached_mb_s\":" << static_cast<std::uint64_t>(r.cached_mb_s)
         << "}";
  }
  json << "\n]}\n";
  return 0;
}
