#include "testbed/testbed.h"

#include "common/bytes.h"
#include "common/params.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "simcore/fleet_runner.h"
#include "simcore/log.h"

namespace seed::testbed {

namespace {

crypto::Key128 key_of(std::uint8_t tag) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(tag * 17 + i * 3 + 1);
  }
  return k;
}

// Representative cause codes for injected failures (what the network will
// reject with), used to label the tracer's FailureInjected span openers.
std::uint8_t cp_cause_of(CpFailure f) {
  switch (f) {
    case CpFailure::kIdentityDesync: return 9;
    case CpFailure::kOutdatedPlmn: return 11;
    case CpFailure::kTransientStateMismatch: return 98;
    case CpFailure::kQuickTransient: return 98;
    case CpFailure::kUnauthorized: return 3;
    case CpFailure::kCongestion: return 22;
    case CpFailure::kCustomUnknown: return 0xc1;
  }
  return 0;
}

std::uint8_t dp_cause_of(DpFailure f) {
  switch (f) {
    case DpFailure::kOutdatedDnn: return 33;
    case DpFailure::kUnknownDnn: return 27;
    case DpFailure::kOutdatedSlice: return 70;
    case DpFailure::kExpiredPlan: return 29;
    case DpFailure::kCongestion: return 26;
    case DpFailure::kCustomUnknown: return 0xd7;
  }
  return 0;
}

}  // namespace

Testbed::Testbed(std::uint64_t seed, Scheme scheme)
    : rng_(seed), cpu_(params::kCoreServerCores), scheme_(scheme),
      seed_(seed) {
  // One timestamp source for logs and trace events (set_clock forwards to
  // the logger), plus event-loop gauges when the registry is enabled.
  obs::Tracer::instance().set_clock(&sim_.now_ref());
  // Single-device harness: spans carry no per-UE tag (and a previous
  // MultiTestbed's tag source must not dangle into this run).
  obs::Tracer::instance().set_ue_source(nullptr);
  obs::observe_simulator(sim_);
  gnb_ = std::make_unique<ran::Gnb>(sim_, rng_);
  core_ = std::make_unique<corenet::CoreNetwork>(sim_, rng_, db_, cpu_);
  core_->enable_seed(scheme != Scheme::kLegacy);

  corenet::Subscriber sub;
  sub.supi = "310-260-0012345678";
  sub.k = key_of(1);
  // OPc derived from an operator OP, as a real UDM would provision it.
  sub.opc = crypto::Milenage(sub.k, key_of(2)).opc();
  sub.seed_key = key_of(3);
  sub.subscribed_dnns = {"internet"};
  db_.add(sub);
  db_.register_known_dnn("internet.v2");

  device::DeviceOptions opts;
  opts.scheme = scheme;
  opts.profile.suci = nas::Suci{{310, 260}, "0012345678"};
  opts.profile.preferred_plmn = {310, 260};
  opts.profile.dnn = "internet";
  opts.k = sub.k;
  opts.opc = sub.opc;
  opts.seed_key = sub.seed_key;
  device_ = std::make_unique<device::Device>(sim_, rng_, *gnb_, *core_,
                                             opts);
}

Testbed::~Testbed() = default;

void Testbed::set_learner(core::NetRecord* learner) {
  core_->set_learner(learner);
}

chaos::ChaosEngine& Testbed::enable_chaos(const chaos::ChaosConfig& config) {
  // A distinct stream family from the testbed RNG: impairment draws must
  // never perturb the scenario's own randomness.
  chaos_ = std::make_unique<chaos::ChaosEngine>(
      config, sim::shard_seed(seed_, 0x5eedc4a0));
  device_->modem().set_chaos(chaos_.get());
  device_->applet().set_chaos(chaos_.get());
  core_->set_chaos(chaos_.get());
  // The hardening that copes with the impairments (and nothing else —
  // an engine with an all-zero config plus this policy still recovers
  // through the ordinary paths).
  device_->applet().set_retry_policy(core::RetryPolicy::hardened());
  device_->enable_recovery_watchdog();
  return *chaos_;
}

void Testbed::bring_up() {
  device_->power_on();
  const auto deadline = sim_.now() + sim::minutes(5);
  while (sim_.now() < deadline && !device_->traffic().path_healthy()) {
    sim_.run_for(sim::ms(100));
  }
  if (!device_->traffic().path_healthy()) {
    throw std::runtime_error("Testbed::bring_up: device failed to attach");
  }
  // Let things settle (timers, probes).
  sim_.run_for(sim::seconds(2));
}

Outcome Testbed::await_recovery(sim::TimePoint t0, sim::Duration timeout) {
  Outcome out;
  const auto deadline = t0 + timeout;
  while (sim_.now() < deadline) {
    sim_.run_for(sim::ms(50));
    if (device_->traffic().path_healthy()) {
      out.recovered = true;
      out.disruption_s = sim::to_seconds(sim_.now() - t0);
      SLOG(kDebug, "testbed") << "recovered after " << out.disruption_s
                              << " s";
      obs::emit_recovered();
      obs::observe("seed.recovery_ms", out.disruption_s * 1e3);
      // Let trailing protocol actions (release completions, record
      // uploads, cancelled timers) settle before returning.
      sim_.run_for(sim::seconds(6));
      obs::Tracer::instance().end_span();
      return out;
    }
  }
  out.recovered = false;
  out.disruption_s = sim::to_seconds(timeout);
  out.user_action_required = device_->user_notifications() > 0;
  SLOG(kDebug, "testbed") << "recovery timeout after "
                          << sim::to_seconds(timeout) << " s";
  obs::count("seed.recovery_timeouts");
  obs::Tracer::instance().end_span();
  return out;
}

Outcome Testbed::run_cp_failure(CpFailure f, sim::Duration timeout) {
  corenet::Subscriber* sub = db_.find("310-260-0012345678");
  auto& faults = core_->faults();

  switch (f) {
    case CpFailure::kIdentityDesync:
      faults.drop_guti_mapping = true;
      break;
    case CpFailure::kOutdatedPlmn:
      faults.plmn_rejected = true;
      // The cached GUTI belongs to the departed registration area.
      device_->modem().clear_cached_identity();
      break;
    case CpFailure::kTransientStateMismatch:
      faults.transient_reject_count = 2;  // heals after two attempts
      break;
    case CpFailure::kQuickTransient:
      faults.transient_reject_count = 1;  // heals on the immediate retry
      break;
    case CpFailure::kUnauthorized:
      sub->authorized = false;
      db_.note_subscriber_mutation();
      break;
    case CpFailure::kCongestion: {
      faults.congested = true;
      const double clear_s = rng_.uniform(4.0, 9.0);
      sim_.schedule_after(sim::secs_f(clear_s),
                          [this] { core_->faults().congested = false; });
      break;
    }
    case CpFailure::kCustomUnknown:
      faults.custom_cause_cp = kCustomCpCode;
      break;
  }

  // Failures cluster under load: a fraction of events carry a secondary
  // congestion layer that delays even a correct first reset (this is the
  // long tail of Table 4's SEED rows).
  if (f != CpFailure::kUnauthorized && f != CpFailure::kCongestion &&
      rng_.chance(secondary_congestion_prob)) {
    faults.congested = true;
    sim_.schedule_after(sim::secs_f(rng_.uniform(40.0, 80.0)),
                        [this] { core_->faults().congested = false; });
  }

  // Trace replay uses stock Android behaviour (3-minute action timers);
  // the recommended short timers are the *delivery* baseline (§7.1.1).
  if (use_default_android_timers) {
    device_->os().set_retry_timers(android::RetryTimers::kDefault);
  }

  const auto t0 = sim_.now();
  SLOG(kDebug, "testbed") << "inject c-plane failure, expected cause #"
                          << int(cp_cause_of(f));
  obs::emit_failure_injected(0, cp_cause_of(f));
  // Mobility/TAU event forces the control-plane procedure under fault.
  device_->modem().trigger_reattach();
  Outcome out = await_recovery(t0, timeout);

  // The custom control-plane fault is cured by any fresh-identity attach
  // (cleared inside the core when a SUCI registration succeeds); clear the
  // leftover flag for hygiene.
  faults.custom_cause_cp.reset();
  return out;
}

Outcome Testbed::run_dp_failure(DpFailure f, sim::Duration timeout) {
  corenet::Subscriber* sub = db_.find("310-260-0012345678");
  auto& faults = core_->faults();
  std::optional<double> heal_after_s;

  switch (f) {
    case DpFailure::kOutdatedDnn:
      // The network-side subscription moved to a new DNN; the device's
      // copy (modem + SIM profile) is outdated. Legacy recovers only when
      // the operator re-allows the old DNN (config propagation, minutes);
      // SEED ships the new DNN with cause #33.
      sub->subscribed_dnns = {"internet.v2"};
      db_.note_subscriber_mutation();
      heal_after_s = rng_.lognormal_median(dp_heal_median_s, 1.25);
      break;
    case DpFailure::kUnknownDnn:
      // The operator deprovisioned the device's DNN network-wide -> #27.
      // The SIM profile copy is equally outdated, so even a legacy modem
      // reboot re-reads the same broken value; only the operator-side
      // re-provisioning (heal) or SEED's suggested DNN recovers.
      sub->subscribed_dnns = {"internet.v2"};
      db_.forget_dnn("internet");  // forget_dnn bumps the mutation epoch
      heal_after_s = rng_.lognormal_median(dp_heal_median_s, 1.25);
      break;
    case DpFailure::kOutdatedSlice:
      // The operator migrated the subscriber to a new slice; the device
      // keeps requesting the old S-NSSAI -> #70. SEED ships the served
      // slice (Appendix-A suggested S-NSSAI); legacy waits for the
      // operator to re-enable the old slice.
      sub->subscribed_slices = {nas::SNssai{2, 0x0000a1}};
      db_.note_subscriber_mutation();
      heal_after_s = rng_.lognormal_median(dp_heal_median_s, 1.25);
      break;
    case DpFailure::kExpiredPlan:
      sub->plan_active = false;
      db_.note_subscriber_mutation();
      break;
    case DpFailure::kCongestion: {
      faults.congested = true;
      const double clear_s = rng_.uniform(6.0, 14.0);
      sim_.schedule_after(sim::secs_f(clear_s),
                          [this] { core_->faults().congested = false; });
      break;
    }
    case DpFailure::kCustomUnknown:
      faults.custom_cause_dp = kCustomDpCode;
      faults.custom_dp_armed_reg_gen =
          core_->registration_generation(device_->ue_id());
      break;
  }

  if (heal_after_s) {
    const bool slice_heal = f == DpFailure::kOutdatedSlice;
    sim_.schedule_after(sim::secs_f(*heal_after_s), [this, slice_heal] {
      corenet::Subscriber* s = db_.find("310-260-0012345678");
      if (s == nullptr) return;
      if (slice_heal) {
        s->subscribed_slices.push_back(nas::SNssai{1, std::nullopt});
        db_.note_subscriber_mutation();
      } else {
        db_.register_known_dnn("internet");  // bumps the mutation epoch
        s->subscribed_dnns.push_back("internet");
        db_.note_subscriber_mutation();
      }
    });
  }

  if (use_default_android_timers) {
    device_->os().set_retry_timers(android::RetryTimers::kDefault);
  }

  const auto t0 = sim_.now();
  SLOG(kDebug, "testbed") << "inject d-plane failure, expected cause #"
                          << int(dp_cause_of(f));
  obs::emit_failure_injected(1, dp_cause_of(f));
  // Data-plane management procedure under fault: the SMF lost the
  // session context (state desync) and the device re-requests it while
  // staying registered. Disruption is measured from the procedure start.
  core_->drop_sessions(device_->ue_id());
  device_->modem().restart_data_session();
  Outcome out = await_recovery(t0, timeout);
  faults.custom_cause_dp.reset();
  return out;
}

Outcome Testbed::run_delivery_failure(DeliveryFailure f,
                                      sim::Duration timeout,
                                      bool immediate_detection) {
  switch (f) {
    case DeliveryFailure::kStaleSession:
      core_->make_sessions_stale(device_->ue_id());
      break;
    case DeliveryFailure::kTcpBlock: {
      corenet::TrafficPolicy p;
      p.tcp_blocked = true;
      core_->set_effective_policy(device_->ue_id(), p);
      break;
    }
    case DeliveryFailure::kUdpBlock: {
      corenet::TrafficPolicy p;
      p.udp_blocked = true;
      core_->set_effective_policy(device_->ue_id(), p);
      break;
    }
    case DeliveryFailure::kDnsOutage:
      core_->set_dns_up(false);
      break;
  }

  const auto t0 = sim_.now();
  SLOG(kDebug, "testbed") << "inject data-delivery failure";
  obs::emit_failure_injected(1, 0);
  if (immediate_detection) {
    // Paper §7.1.1 measures recovery with the failure reported promptly
    // (apps use the SEED report API; the legacy baseline is triggered at
    // its sequential-retry entry point) — detection latency itself is
    // Fig. 3's experiment.
    if (scheme_ == Scheme::kLegacy) {
      // Recovery-focused experiment: detection fires promptly (detection
      // latency itself is Fig. 3's measurement). A fraction of recovery
      // re-registrations hit a transient reject — the paper's 90th
      // percentile shows some runs escalating past the re-register step.
      if (f == DeliveryFailure::kStaleSession && rng_.chance(0.2)) {
        core_->faults().transient_reject_count = 1;
      }
      sim_.schedule_after(sim::ms(200),
                          [this] { device_->os().force_stall(); });
    } else {
      // An app daemon files a report right away (paper's report API).
      sim_.schedule_after(sim::ms(300), [this, f] {
        proto::FailureReport r;
        switch (f) {
          case DeliveryFailure::kUdpBlock:
            r.type = proto::FailureType::kUdp;
            r.port = 5004;
            break;
          case DeliveryFailure::kDnsOutage:
            r.type = proto::FailureType::kDns;
            r.domain = "edge.example.net";
            break;
          default:
            r.type = proto::FailureType::kTcp;
            r.port = 443;
            break;
        }
        r.direction = proto::TrafficDirection::kBoth;
        r.addr = nas::Ipv4{{203, 0, 113, 10}};
        device_->carrier_app().report_failure(r);
      });
    }
  }
  return await_recovery(t0, timeout);
}

Outcome Testbed::run_custom_failure(nas::Plane plane, core::CustomCause code,
                                    sim::Duration timeout) {
  auto& faults = core_->faults();
  const auto t0 = sim_.now();
  obs::emit_failure_injected(plane == nas::Plane::kControl ? 0 : 1,
                             static_cast<std::uint8_t>(code & 0xff));
  if (plane == nas::Plane::kControl) {
    faults.custom_cause_cp = code;
    device_->modem().trigger_reattach();
  } else {
    faults.custom_cause_dp = code;
    faults.custom_dp_armed_reg_gen =
        core_->registration_generation(device_->ue_id());
    core_->drop_sessions(device_->ue_id());
    device_->modem().restart_data_session();
  }
  Outcome out = await_recovery(t0, timeout);
  faults.custom_cause_cp.reset();
  faults.custom_cause_dp.reset();
  return out;
}

SampledFailure sample_table1_failure(sim::Rng& rng) {
  // Paper Table 1: control plane 56.2%, data plane 43.8% of failures,
  // with the listed top causes. The remainder of each plane's mass is
  // spread over congestion/transient/custom causes.
  SampledFailure out;
  out.control_plane = rng.chance(0.562);
  if (out.control_plane) {
    // Scenario weights within the control plane (percent of all
    // failures), mapping Table 1's causes onto recovery dynamics:
    // identity desync (#9 + part of #50) sticks until attempt exhaustion;
    // quick transients (#98 + fast cell reselection within #15) recover
    // on the immediate retry (<2 s, the 19% of Fig. 2); T3511-paced
    // transients (#50/#15 state resync) recover after one 10 s round;
    // outdated PLMN (#11) needs a full search or an A2 update.
    static const double w[] = {12.0, 7.0, 19.0, 11.0, 3.4, 2.0, 1.8};
    switch (rng.weighted_index(w)) {
      case 0: out.cp = CpFailure::kIdentityDesync; break;
      case 1: out.cp = CpFailure::kOutdatedPlmn; break;
      case 2: out.cp = CpFailure::kTransientStateMismatch; break;
      case 3: out.cp = CpFailure::kQuickTransient; break;
      case 4: out.cp = CpFailure::kUnauthorized; break;
      case 5: out.cp = CpFailure::kCongestion; break;
      default: out.cp = CpFailure::kCustomUnknown; break;
    }
  } else {
    // Data plane: not-subscribed 7.9, invalid-mandatory 5.9 (both
    // config-related), expired plans 2.0 (the ~4.5% of d-plane cases SEED
    // cannot handle, §7.1.1 — the rest of Table 1's #29 mass behaves as a
    // transient auth/resource glitch), unspecified 2.6 (custom),
    // congestion/resources 4.6, remainder spread over config-related
    // operational failures (outdated configs dominate).
    static const double w[] = {7.9 + 12.0, 5.9 + 8.8, 2.0, 2.6, 4.6};
    switch (rng.weighted_index(w)) {
      case 0: out.dp = DpFailure::kOutdatedDnn; break;
      case 1: out.dp = DpFailure::kUnknownDnn; break;
      case 2: out.dp = DpFailure::kExpiredPlan; break;
      case 3: out.dp = DpFailure::kCustomUnknown; break;
      default: out.dp = DpFailure::kCongestion; break;
    }
  }
  return out;
}

}  // namespace seed::testbed
