// Labeled ground-truth scenario packs: every injected failure carries a
// machine-readable cause-family label that rides the simulator's context
// cell (Simulator::TagScope, 3-arg form) through the entire recovery
// cascade, so each kDiagnosisVerdict the infrastructure or SIM emits is
// joined back to the injection that provoked it — no side-channel
// bookkeeping, no per-test plumbing.
//
// The generator composes storms from the CauseFamily vocabulary
// (seed/verdict.h): Table 1 NAS failures, congestion with transient vs.
// persistent advertised waits, data-delivery faults (stale gateway
// state, erroneous policy), a deliberately misattributed delivery report
// (the blocked flow type != the reported one), passive SIM-channel
// faults, operator-custom causes (the §5.3 learner's domain), and
// adversarial poisoning (undecodable collab uplink).
//
// Determinism: labels are (family << 24) | ordinal with a per-shard
// ordinal base of shard * 4096, so fleet shards carve disjoint label
// ranges and the merged stream has no collisions regardless of worker
// count or interleave.
#pragma once

#include <cstdint>
#include <vector>

#include "seed/verdict.h"
#include "testbed/multi_testbed.h"

namespace seed::testbed {

class LabeledScenarioGen {
 public:
  /// Ordinals start at shard * 4096 + 1; one generator per shard.
  explicit LabeledScenarioGen(MultiTestbed& bed, std::uint32_t shard = 0);

  /// Every injectable family, in enum order (kNone excluded).
  static std::vector<core::CauseFamily> all_families();

  /// 0 = the injection provokes a control-plane failure, 1 = data plane.
  static std::uint8_t plane_of(core::CauseFamily f);

  /// Injects one labeled failure of `family` on `ue` and returns the
  /// label. Emits the kGroundTruthLabel event at the injection site;
  /// the whole cascade runs under TagScope(ue + 1, label).
  std::uint32_t inject(core::CauseFamily family, corenet::UeId ue);

  struct PackOptions {
    /// Families to storm with; empty = all_families(). Each family gets
    /// a dedicated UE (index = position in this list) so recovery
    /// cascades never bleed across families.
    std::vector<core::CauseFamily> families;
    /// Labeled injections per family.
    std::size_t rounds = 2;
  };

  /// Runs a full pack and returns the labels in injection order: 45 s
  /// between rounds (every cascade drains before the next round
  /// re-injects on the same UEs), 90 s of extra drain after the last.
  /// Requires bed.ue_count() >= families.size().
  std::vector<std::uint32_t> run_pack(const PackOptions& opts);

  std::uint32_t next_ordinal() const { return next_ordinal_; }

 private:
  /// Blocks one flow type but has the app daemon report the *other* —
  /// the report-validation path cannot match the blocked flow and falls
  /// through to the stale-session reset (a pinned misdiagnosis).
  void inject_type_mismatch(corenet::UeId ue);

  MultiTestbed& bed_;
  std::uint32_t next_ordinal_;
};

}  // namespace seed::testbed
