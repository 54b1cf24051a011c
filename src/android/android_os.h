// Android-style data-stall detection and sequential-retry recovery
// (paper §2, §3.3), plus the carrier app that bridges apps/OS to the SEED
// applet (paper §6: failure report service + recovery action module).
//
// Detection classes (documented Android thresholds):
//   1. captive-portal probe failure (connectivitycheck-style HTTPS fetch)
//   2. TCP: >= 80% failure rate, or >= 10 outbound with 0 inbound, in the
//      last minute
//   3. DNS: 5 consecutive timeouts within 30 minutes
// Recovery: level-by-level sequential retry — clean/restart TCP, then
// re-register, then restart the modem — separated by the configured
// intervals (3 min default; 21/6/16 s "recommended" baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "modem/modem.h"
#include "simapplet/applet.h"
#include "simcore/simulator.h"
#include "transport/traffic.h"

namespace seed::android {

enum class RetryTimers : std::uint8_t { kDefault, kRecommended };

struct AndroidStats {
  std::uint64_t stalls_detected = 0;
  std::uint64_t retries_tcp_restart = 0;
  std::uint64_t retries_reregister = 0;
  std::uint64_t retries_modem_restart = 0;
};

class AndroidOs {
 public:
  AndroidOs(sim::Simulator& sim, sim::Rng& rng,
            transport::TrafficEngine& traffic, modem::Modem& modem);

  /// Starts the periodic portal probe + stats evaluation loop.
  void start();

  /// Benchmark hook: declare a stall right now (used where the experiment
  /// measures recovery, not detection — detection latency is Fig. 3).
  void force_stall() { on_stall(); }

  /// Legacy sequential retry on/off (off when SEED handles recovery).
  void set_sequential_retry_enabled(bool on) { retry_enabled_ = on; }
  void set_retry_timers(RetryTimers t) { timers_ = t; }
  /// SEED path: the carrier app forwards the stall to the applet.
  void set_stall_handler(std::function<void()> fn) {
    stall_handler_ = std::move(fn);
  }

  /// Time of the most recent stall detection (for Fig. 3 latency).
  std::optional<sim::TimePoint> last_stall_at() const { return last_stall_; }
  void clear_stall_record() { last_stall_ = std::nullopt; }

  const AndroidStats& stats() const { return stats_; }

 private:
  void evaluate();
  void on_stall();
  void run_retry_step(int step);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  transport::TrafficEngine& traffic_;
  modem::Modem& modem_;

  bool retry_enabled_ = true;
  RetryTimers timers_ = RetryTimers::kDefault;
  std::function<void()> stall_handler_;

  bool probing_ = false;
  bool stall_active_ = false;
  int bad_evaluations_ = 0;
  std::optional<sim::TimePoint> last_stall_;
  sim::Timer retry_timer_;
  AndroidStats stats_;
};

/// Carrier app (paper §6): receives app failure reports and OS stall
/// notifications, forwards them to the SIM applet, detects root to enable
/// SEED-R, and executes A3 config updates with UICC privilege (the applet
/// reaches it through ModemControl, which the modem implements here).
class CarrierApp {
 public:
  CarrierApp(applet::SeedApplet& applet, bool device_rooted);

  /// App-facing failure report API (§4.3.2).
  void report_failure(const proto::FailureReport& report) {
    applet_.report_failure(report);
  }
  /// Connectivity-diagnostics callback path.
  void on_data_stall() { applet_.on_os_data_stall(); }

  bool rooted() const { return rooted_; }

 private:
  applet::SeedApplet& applet_;
  bool rooted_;
};

}  // namespace seed::android
