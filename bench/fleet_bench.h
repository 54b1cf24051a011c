// Shared plumbing for the benches: argv helpers, fleet thread-count
// selection and the BENCH_fleet.json wall-clock trail.
//
// Thread count resolution order: SEED_FLEET_THREADS env var, then a
// `--threads=N` argument, then hardware_concurrency — so CI and the
// determinism check (1-thread vs N-thread byte-identical output) can pin
// the pool without rebuilding.
#pragma once

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "simcore/fleet_runner.h"

namespace seed::benchutil {

/// Value of a `key=value` argument (`key` without the '='), or
/// `fallback` when absent.
inline const char* str_of(int argc, char** argv, const char* key,
                          const char* fallback = nullptr) {
  const std::size_t n = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, n) == 0 && argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
  }
  return fallback;
}

/// Integer value of a `key=value` argument, or `fallback` when absent.
inline long long arg_of(int argc, char** argv, const char* key,
                        long long fallback) {
  const char* v = str_of(argc, argv, key);
  return v != nullptr ? std::strtoll(v, nullptr, 10) : fallback;
}

/// True when the bare argument `key` is present.
inline bool flag_of(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}

inline std::size_t fleet_threads(int argc, char** argv) {
  if (const std::size_t env = sim::fleet_threads_from_env(0)) return env;
  const long long v = arg_of(argc, argv, "--threads", 0);
  return v > 0 ? static_cast<std::size_t>(v) : 0;  // 0: hardware_concurrency
}

/// Wall-clock stopwatch that appends one JSON line per bench run to
/// BENCH_fleet.json in the working directory.
class FleetStopwatch {
 public:
  FleetStopwatch(std::string bench, std::size_t threads, std::size_t shards)
      : bench_(std::move(bench)), threads_(threads), shards_(shards),
        t0_(std::chrono::steady_clock::now()) {}

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  void append_json() const {
    std::ofstream os("BENCH_fleet.json", std::ios::app);
    os << "{\"bench\":\"" << bench_ << "\",\"threads\":" << threads_
       << ",\"shards\":" << shards_ << ",\"wall_ms\":" << elapsed_ms()
       << "}\n";
  }

 private:
  std::string bench_;
  std::size_t threads_;
  std::size_t shards_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace seed::benchutil
