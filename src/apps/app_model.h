// Application traffic + buffer models for the five latency-sensitive apps
// of paper §7.1.2 (video / live streaming / web / navigation / edge AR).
//
// Each app issues periodic transfers through the TrafficEngine; a playback
// buffer absorbs outages shorter than its depth. Disruption perceived by
// the user = max(0, outage - buffer). Apps integrated with SEED run the
// paper's background daemon: after a few consecutive failures they call
// the carrier-app failure report API (§4.3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "nas/ie.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "transport/traffic.h"

namespace seed::apps {

struct AppSpec {
  std::string name;
  sim::Duration buffer{0};         // playback buffer depth
  sim::Duration period{0};         // transfer cadence
  bool uses_dns = true;            // resolve before connecting
  nas::IpProtocol proto = nas::IpProtocol::kTcp;
  std::uint16_t port = 443;
  /// Consecutive failures before the SEED daemon files a report.
  int report_after_failures = 2;
};

/// Paper §7.1.2 app set.
AppSpec video_app();        // YouTube-like, ~30 s buffer
AppSpec live_stream_app();  // Twitch-like, ~3 s buffer
AppSpec web_app();          // browser, no buffer, bursty DNS+TCP
AppSpec navigation_app();   // periodic location upload
AppSpec edge_ar_app();      // UDP uplink stream, no buffer, 100 ms budget

class App {
 public:
  App(sim::Simulator& sim, sim::Rng& rng, transport::TrafficEngine& traffic,
      AppSpec spec);

  void start();
  /// SEED integration: where failure reports go (carrier app API); unset
  /// for non-SEED baselines.
  void set_report_sink(std::function<void(const proto::FailureReport&)> fn) {
    report_sink_ = std::move(fn);
  }

  const AppSpec& spec() const { return spec_; }
  std::uint64_t successes() const { return successes_; }
  std::uint64_t failures() const { return failures_; }

  /// User-perceived disruption for an outage starting at `t0` and ending
  /// at the first successful transfer after it (buffer-adjusted).
  /// nullopt while the app has not yet recovered.
  std::optional<double> perceived_disruption(sim::TimePoint t0) const;

 private:
  void tick();
  void on_result(bool ok);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  transport::TrafficEngine& traffic_;
  AppSpec spec_;
  bool running_ = false;
  int consecutive_failures_ = 0;
  bool reported_ = false;
  std::uint64_t successes_ = 0;
  std::uint64_t failures_ = 0;
  sim::TimePoint last_success_{};
  std::function<void(const proto::FailureReport&)> report_sink_;
};

}  // namespace seed::apps
