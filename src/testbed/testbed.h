// Experiment harness: builds the full stack (core + gNB + device), arms
// failure conditions, triggers the affected procedure, and measures
// disruption — the simulated equivalent of the paper's USRP/Magma/Pixel-5
// testbed (§7 "Experimental Setup").
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "corenet/core_network.h"
#include "device/device.h"
#include "metrics/meters.h"
#include "metrics/stats.h"
#include "ran/gnb.h"
#include "seed/online_learning.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::testbed {

using device::Scheme;

/// Control-plane management failure classes (drawn from Table 1's top
/// causes; each maps to a concrete injected condition).
enum class CpFailure {
  kIdentityDesync,         // #9  UE identity cannot be derived
  kOutdatedPlmn,           // #11/#15 outdated PLMN priority list
  kTransientStateMismatch, // #98 transient state desync (self-healing)
  kQuickTransient,         // #98 resolving on the immediate retry
  kUnauthorized,           // #3  illegal UE -> user action
  kCongestion,             // #22 cell/core congestion
  kCustomUnknown,          // operator-custom failure (online learning)
};

enum class DpFailure {
  kOutdatedDnn,      // #33 requested service option not subscribed
  kUnknownDnn,       // #27 missing or unknown DNN
  kOutdatedSlice,    // #70 slice no longer served (§9 slicing extension)
  kExpiredPlan,      // #29 user authentication failed -> user action
  kCongestion,       // #26 insufficient resources (transient)
  kCustomUnknown,    // operator-custom failure (online learning)
};

enum class DeliveryFailure {
  kStaleSession,  // outdated gateway state; recoverable by reconnection
  kTcpBlock,      // erroneous network-side TCP policy
  kUdpBlock,      // erroneous network-side UDP policy
  kDnsOutage,     // carrier LDNS down
};

struct Outcome {
  bool recovered = false;
  double disruption_s = 0.0;  // failure start -> service healthy
  bool user_action_required = false;
};

/// A (plane-tagged) failure scenario drawn from the empirical Table 1
/// cause mix; used by the trace-replay benches.
struct SampledFailure {
  bool control_plane = true;
  CpFailure cp = CpFailure::kTransientStateMismatch;
  DpFailure dp = DpFailure::kOutdatedDnn;
};
SampledFailure sample_table1_failure(sim::Rng& rng);

/// True for the Table 1 causes no scheme recovers from: an unauthorized
/// subscriber or an expired plan needs the user to act (§7.1.1).
bool needs_user_action(const SampledFailure& f);

/// One run of a Table-1 experiment: the failure and its testbed seed.
struct Table1Run {
  SampledFailure f;
  std::uint64_t tb_seed = 0;
};

/// The run list shared by Table 4, the §7.1.1 coverage line and the
/// chaos/adversarial cells. The mix is drawn from Rng(seed); every draw
/// is consumed, but with `plane` set only samples of that plane are
/// kept. The k-th kept sample (1-based) runs under testbed seed
/// seed * 131 + k.
std::vector<Table1Run> table1_runs(std::uint64_t seed, int runs,
                                   std::optional<nas::Plane> plane = {});

/// Outcome counts over Table-1 runs.
struct Table1Tally {
  int total = 0;
  int recovered = 0;
  int user_action = 0;  // unrecovered and a user-action case
  metrics::Samples disruption;  // recovered runs only

  void add(const SampledFailure& f, const Outcome& out);
  /// Recovered share of the runs that can recover: user-action failures
  /// are terminal by design in every scheme. 1 when none can.
  double recovery_rate() const;
};

class Testbed {
 public:
  Testbed(std::uint64_t seed, Scheme scheme);
  ~Testbed();

  /// Powers the device and runs until the data service is healthy.
  void bring_up();

  Outcome run_cp_failure(CpFailure f,
                         sim::Duration timeout = sim::minutes(40));
  Outcome run_dp_failure(DpFailure f,
                         sim::Duration timeout = sim::minutes(80));
  /// One Table-1 run (call after bring_up()): an operator-custom cause
  /// carries the operator-known action of the Table 4 mixture (B2 on the
  /// control plane, B3 on the data plane, §5.2; pure-unknown learning is
  /// §7.2.4), then the failure runs to its plane's default timeout.
  Outcome run_table1(const SampledFailure& f);
  Outcome run_delivery_failure(DeliveryFailure f,
                               sim::Duration timeout = sim::minutes(40),
                               bool immediate_detection = true);

  /// Injects an operator-custom (unstandardized) failure with the given
  /// cause code on the chosen plane (the §7.2.4 experiment).
  Outcome run_custom_failure(nas::Plane plane, core::CustomCause code,
                             sim::Duration timeout = sim::minutes(12));

  /// Table 5-style configuration: the app experiment runs controlled
  /// faults with the recommended Android timers and a faster operator
  /// config-propagation heal.
  bool use_default_android_timers = true;
  double dp_heal_median_s = 460.0;

  // accessors for benches/tests
  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  corenet::CoreNetwork& core() { return *core_; }
  corenet::SubscriberDb& db() { return db_; }
  ran::Gnb& gnb() { return *gnb_; }
  device::Device& dev() { return *device_; }

  /// Attaches a chaos engine impairing SEED's own recovery path, which
  /// also arms the hardening that copes with it: applet retries and tier
  /// escalation, recovery watchdog, ack-guards on both collab directions. The engine's streams
  /// are seeded from the testbed seed (sim::shard_seed), so a run is
  /// byte-reproducible per (seed, config).
  chaos::ChaosEngine& enable_chaos(const chaos::ChaosConfig& config);
  /// Null until enable_chaos() is called.
  chaos::ChaosEngine* chaos() { return chaos_.get(); }

  /// Shares an operator-wide online-learning model across testbeds
  /// (Algorithm 1's NetRecord lives in the infrastructure).
  void set_learner(core::NetRecord* learner);

  /// Probability that a c-plane failure event carries a secondary
  /// congestion layer (drives Table 4's long tails). Tests set 0.
  double secondary_congestion_prob = 0.10;

  /// Custom cause code used by kCustomUnknown scenarios.
  static constexpr core::CustomCause kCustomCpCode = 0xC1;
  static constexpr core::CustomCause kCustomDpCode = 0xD7;

 private:
  /// Runs until the end-to-end path is healthy; returns seconds from t0.
  Outcome await_recovery(sim::TimePoint t0, sim::Duration timeout);

  sim::Simulator sim_;
  sim::Rng rng_;
  corenet::SubscriberDb db_;
  metrics::CpuMeter cpu_;
  std::unique_ptr<ran::Gnb> gnb_;
  std::unique_ptr<corenet::CoreNetwork> core_;
  std::unique_ptr<device::Device> device_;
  Scheme scheme_;
  std::uint64_t seed_;
  std::unique_ptr<chaos::ChaosEngine> chaos_;
};

}  // namespace seed::testbed
