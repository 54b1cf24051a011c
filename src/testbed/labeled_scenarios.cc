#include "testbed/labeled_scenarios.h"

#include <array>
#include <stdexcept>

#include "seedproto/failure_report.h"

namespace seed::testbed {

using core::CauseFamily;

namespace {

/// Ordinal range a shard owns; 4096 labeled injections per shard is far
/// beyond any pack, and disjoint ranges keep merged fleet streams
/// collision-free.
constexpr std::uint32_t kOrdinalsPerShard = 4096;

/// Undecodable on purpose (bad protocol discriminator) — the decoder
/// rejects it and note_malformed scores a strike.
constexpr std::array<std::uint8_t, 3> kJunkFrame = {0x55, 0xaa, 0x01};

/// run_pack pacing: recovery window between rounds (every cascade drains
/// before the next round re-injects on the same UEs), and extra drain
/// time after the last round.
constexpr sim::Duration kPackSpacing = sim::seconds(45);
constexpr sim::Duration kPackSettle = sim::seconds(90);

}  // namespace

LabeledScenarioGen::LabeledScenarioGen(MultiTestbed& bed, std::uint32_t shard)
    : bed_(bed), next_ordinal_(shard * kOrdinalsPerShard + 1) {}

std::vector<CauseFamily> LabeledScenarioGen::all_families() {
  std::vector<CauseFamily> out;
  out.reserve(core::kCauseFamilyCount - 1);
  for (std::size_t f = 1; f < core::kCauseFamilyCount; ++f) {
    out.push_back(static_cast<CauseFamily>(f));
  }
  return out;
}

std::uint8_t LabeledScenarioGen::plane_of(CauseFamily f) {
  switch (f) {
    case CauseFamily::kPersistentCongestion:
    case CauseFamily::kStaleDnn:
    case CauseFamily::kOutdatedSlice:
    case CauseFamily::kExpiredPlan:
    case CauseFamily::kPolicyBlock:
    case CauseFamily::kStaleSession:
    case CauseFamily::kDeliveryTypeMismatch:
      return 1;
    default:
      return 0;
  }
}

std::uint32_t LabeledScenarioGen::inject(CauseFamily family,
                                         corenet::UeId ue) {
  const std::uint32_t label = core::make_label(family, next_ordinal_++);
  // The 3-arg scope seeds BOTH the per-UE tag and the ground-truth label;
  // schedule_at snapshots them into every timer the cascade plants, so
  // the label survives arbitrarily deep retry/assist chains. The
  // injection helpers below open their own 2-arg scopes (tag only) —
  // those nest inside this one and keep the label.
  sim::Simulator::TagScope scope(bed_.simulator(), ue + 1, label);
  core::emit_ground_truth(family, plane_of(family), label);

  switch (family) {
    case CauseFamily::kIdentityDesync:
      bed_.inject_cp(ue, CpFailure::kIdentityDesync);
      break;
    case CauseFamily::kOutdatedPlmn:
      bed_.inject_cp(ue, CpFailure::kOutdatedPlmn);
      break;
    case CauseFamily::kStateMismatch:
      bed_.inject_cp(ue, CpFailure::kTransientStateMismatch);
      break;
    case CauseFamily::kUnauthorized:
      bed_.inject_cp(ue, CpFailure::kUnauthorized);
      break;
    case CauseFamily::kTransientCongestion:
      // Short advertised wait: the Fig. 8 congestion warning carries it,
      // and the scorer's transient/persistent split keys on it.
      bed_.core().faults(ue).congestion_wait_s = 15;
      bed_.inject_cp(ue, CpFailure::kCongestion);
      break;
    case CauseFamily::kPersistentCongestion:
      bed_.core().faults(ue).congestion_wait_s = 120;
      bed_.inject_dp(ue, DpFailure::kCongestion);
      break;
    case CauseFamily::kStaleDnn:
      bed_.inject_dp(ue, DpFailure::kOutdatedDnn);
      break;
    case CauseFamily::kOutdatedSlice:
      bed_.inject_dp(ue, DpFailure::kOutdatedSlice);
      break;
    case CauseFamily::kExpiredPlan:
      bed_.inject_dp(ue, DpFailure::kExpiredPlan);
      break;
    case CauseFamily::kPolicyBlock:
      bed_.inject_delivery(ue, DeliveryFailure::kTcpBlock);
      break;
    case CauseFamily::kStaleSession:
      bed_.inject_delivery(ue, DeliveryFailure::kStaleSession);
      break;
    case CauseFamily::kDeliveryTypeMismatch:
      inject_type_mismatch(ue);
      break;
    case CauseFamily::kSimChannelFault:
      // Passive: the AMF notices the device stopped answering and walks
      // Fig. 8's no-response branch (hardware reset request).
      bed_.core().note_unresponsive(ue);
      break;
    case CauseFamily::kCustomUnknown:
      bed_.inject_cp(ue, CpFailure::kCustomUnknown);
      break;
    case CauseFamily::kAdversarialPoisoning:
      // One forged frame per injection; run_pack's round spacing
      // keeps the 3-strike quarantine's mute windows from swallowing a
      // later family's traffic — poisoning gets a dedicated UE anyway.
      bed_.core().on_uplink(ue, BytesView(kJunkFrame));
      break;
    case CauseFamily::kNone:
      break;
  }
  return label;
}

void LabeledScenarioGen::inject_type_mismatch(corenet::UeId ue) {
  // The network wrongly blocks UDP...
  corenet::TrafficPolicy p;
  p.udp_blocked = true;
  bed_.core().set_effective_policy(ue, p);
  // ...but the app daemon blames its dead TCP keepalive and reports TCP.
  // handle_diag_report finds no TCP block to repair and falls through to
  // the stale-session reset: a *wrong* diagnosis the accuracy harness
  // pins at 0% recall (and the labeled_misdiagnosis golden freezes).
  bed_.simulator().schedule_after(sim::ms(300), [this, ue] {
    proto::FailureReport r;
    r.type = proto::FailureType::kTcp;
    r.port = 443;
    r.direction = proto::TrafficDirection::kBoth;
    r.addr = nas::Ipv4{{203, 0, 113, 10}};
    bed_.dev(ue).carrier_app().report_failure(r);
  });
  // The operator's support desk eventually restores the intended policy
  // (fixed horizon: the desk queue, compressed to simulation scale).
  bed_.simulator().schedule_after(sim::seconds(300), [this, ue] {
    if (const corenet::Subscriber* s =
            bed_.db().find(MultiTestbed::supi_of(ue))) {
      bed_.core().set_effective_policy(ue, s->policy);
    }
  });
}

std::vector<std::uint32_t> LabeledScenarioGen::run_pack(
    const PackOptions& opts) {
  const std::vector<CauseFamily> families =
      opts.families.empty() ? all_families() : opts.families;
  if (bed_.ue_count() < families.size()) {
    throw std::invalid_argument(
        "LabeledScenarioGen::run_pack: need one dedicated UE per family (" +
        std::to_string(families.size()) + " families, " +
        std::to_string(bed_.ue_count()) + " UEs)");
  }
  std::vector<std::uint32_t> labels;
  labels.reserve(families.size() * opts.rounds);
  for (std::size_t round = 0; round < opts.rounds; ++round) {
    for (std::size_t i = 0; i < families.size(); ++i) {
      labels.push_back(
          inject(families[i], static_cast<corenet::UeId>(i)));
    }
    bed_.simulator().run_for(kPackSpacing);
  }
  bed_.simulator().run_for(kPackSettle);
  return labels;
}

}  // namespace seed::testbed
