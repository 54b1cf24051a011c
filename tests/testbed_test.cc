#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/params.h"
#include "testbed/testbed.h"

namespace seed::testbed {
namespace {

using device::Scheme;

TEST(Testbed, BringUpReachesHealthyService) {
  Testbed tb(1, Scheme::kLegacy);
  tb.bring_up();
  EXPECT_TRUE(tb.dev().modem().registered());
  EXPECT_TRUE(tb.dev().modem().data_connected());
  EXPECT_TRUE(tb.dev().traffic().path_healthy());
  EXPECT_TRUE(tb.core().device_registered(tb.dev().ue_id()));
  EXPECT_GE(tb.core().stats().auth_vectors, 1u);
}

TEST(Testbed, BringUpWorksForAllSchemes) {
  for (Scheme s : {Scheme::kLegacy, Scheme::kSeedU, Scheme::kSeedR}) {
    Testbed tb(2, s);
    tb.bring_up();
    EXPECT_TRUE(tb.dev().traffic().path_healthy())
        << device::scheme_name(s);
  }
}

// ------------------------------------------------------ control plane

TEST(Testbed, IdentityDesyncLegacyTakesTimerScale) {
  Testbed tb(3, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  // Legacy keeps retrying with the stale GUTI (T3511 pacing): recovery
  // needs at least several 10 s rounds or the T3502 path.
  EXPECT_GT(out.disruption_s, 10.0);
}

TEST(Testbed, IdentityDesyncSeedUMuchFaster) {
  Testbed tb(4, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 15.0);
  EXPECT_GE(tb.dev().applet().stats().diags_received, 1u);
  EXPECT_GE(tb.dev().applet().stats().actions_run, 1u);
}

TEST(Testbed, IdentityDesyncSeedRFastest) {
  Testbed tb(5, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kIdentityDesync);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 10.0);
}

TEST(Testbed, QuickTransientRecoversWithoutSeedReset) {
  Testbed tb(6, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kQuickTransient);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 4.0);
  // The 2 s wait let the transient self-heal: no reset actions fired for
  // this failure (the applet may still have pending-cancel bookkeeping).
  EXPECT_EQ(tb.dev().applet().stats().actions_run, 0u);
}

TEST(Testbed, OutdatedPlmnLegacyNeedsFullSearch) {
  Testbed tb(7, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  EXPECT_GE(tb.dev().modem().stats().full_plmn_searches, 1u);
  EXPECT_GT(out.disruption_s, 10.0);
}

TEST(Testbed, OutdatedPlmnSeedSkipsSearch) {
  Testbed tb(8, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kOutdatedPlmn);
  ASSERT_TRUE(out.recovered);
  // SEED's A2 config update + reattach preempts the exhaustive search the
  // legacy logic would otherwise sit in (the modem may still have
  // *started* one, but recovery never waits for it).
  EXPECT_LT(out.disruption_s, 10.0);
  EXPECT_LE(tb.dev().modem().stats().full_plmn_searches, 1u);
}

TEST(Testbed, UnauthorizedNeedsUserAction) {
  Testbed tb(9, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kUnauthorized,
                                     sim::minutes(3));
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.user_action_required);
  EXPECT_GE(tb.dev().applet().stats().user_notifications, 1u);
}

TEST(Testbed, CongestionSeedWaitsInsteadOfResetting) {
  Testbed tb(10, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kCongestion);
  ASSERT_TRUE(out.recovered);
  // Recovery happens after the congestion clears (4-9 s) without storms
  // of extra registrations.
  EXPECT_LT(out.disruption_s, 40.0);
}

// --------------------------------------------------------- data plane

TEST(Testbed, OutdatedDnnLegacyWaitsForHeal) {
  Testbed tb(11, Scheme::kLegacy);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_GT(out.disruption_s, 60.0);  // minutes-scale
  EXPECT_GE(tb.dev().modem().stats().pdu_rejected, 2u);  // repeated failures
}

TEST(Testbed, OutdatedDnnSeedUUsesConfigUpdate) {
  Testbed tb(12, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 5.0);
  // The applet applied the suggested DNN from the assistance info.
  EXPECT_EQ(tb.dev().applet().profile().dnn, "internet.v2");
  EXPECT_EQ(tb.dev().modem().dnn(), "internet.v2");
}

TEST(Testbed, OutdatedDnnSeedRFaster) {
  Testbed tb(13, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedDnn);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 3.0);
}

TEST(Testbed, ExpiredPlanNeedsUser) {
  Testbed tb(14, Scheme::kSeedU);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kExpiredPlan,
                                     sim::minutes(3));
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.user_action_required);
}

TEST(Testbed, OutdatedSliceSeedAppliesSuggestedSnssai) {
  // §9 extension: the device's slice is no longer served (#70); SEED
  // ships the served S-NSSAI and the session comes back on it.
  Testbed tb(26, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedSlice);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 6.0);
  EXPECT_EQ(tb.dev().modem().snssai(), (nas::SNssai{2, 0x0000a1}));
  EXPECT_EQ(tb.dev().applet().profile().snssai, (nas::SNssai{2, 0x0000a1}));
}

TEST(Testbed, OutdatedSliceLegacyWaitsForHeal) {
  Testbed tb(27, Scheme::kLegacy);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kOutdatedSlice);
  ASSERT_TRUE(out.recovered);
  EXPECT_GT(out.disruption_s, 30.0);  // operator-side heal scale
}

// ------------------------------------------------------ data delivery

TEST(Testbed, StaleSessionLegacySequentialRetry) {
  Testbed tb(15, Scheme::kLegacy);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kStaleSession);
  ASSERT_TRUE(out.recovered);
  // Recommended timers: re-register fires after ~27 s of escalation.
  EXPECT_GT(out.disruption_s, 20.0);
  EXPECT_LT(out.disruption_s, 120.0);
}

TEST(Testbed, StaleSessionSeedRSubSecond) {
  Testbed tb(16, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kStaleSession);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 3.0);
  EXPECT_GE(tb.dev().applet().stats().reports_sent_uplink, 1u);
}

TEST(Testbed, TcpBlockOnlySeedRecovers) {
  Testbed legacy(17, Scheme::kLegacy);
  legacy.bring_up();
  const auto l = legacy.run_delivery_failure(DeliveryFailure::kTcpBlock,
                                             sim::minutes(10));
  EXPECT_FALSE(l.recovered);  // blind retries cannot fix a policy error

  Testbed seedr(18, Scheme::kSeedR);
  seedr.bring_up();
  const auto s = seedr.run_delivery_failure(DeliveryFailure::kTcpBlock);
  ASSERT_TRUE(s.recovered);
  EXPECT_LT(s.disruption_s, 5.0);
  EXPECT_GE(seedr.core().stats().diag_reports_rx, 1u);
}

TEST(Testbed, DnsOutageSeedConfiguresBackupDns) {
  Testbed tb(19, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kDnsOutage);
  ASSERT_TRUE(out.recovered);
  EXPECT_EQ(tb.dev().modem().dns_addr().to_string(), "9.9.9.9");
}

TEST(Testbed, UdpBlockSeedRecovers) {
  Testbed tb(20, Scheme::kSeedR);
  tb.bring_up();
  const auto out = tb.run_delivery_failure(DeliveryFailure::kUdpBlock);
  ASSERT_TRUE(out.recovered);
  EXPECT_LT(out.disruption_s, 5.0);
}

// -------------------------------------------------------- online learning

TEST(Testbed, CustomUnknownCpLearnsControlPlaneAction) {
  core::NetRecord learner(0.2);
  Testbed tb(21, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.set_learner(&learner);
  tb.bring_up();
  const auto out = tb.run_cp_failure(CpFailure::kCustomUnknown,
                                     sim::minutes(10));
  ASSERT_TRUE(out.recovered);
  // The trial sequence B3 -> A3 -> B2 ... lands on a control-plane reset.
  const auto best = learner.best_action(Testbed::kCustomCpCode);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == proto::ResetAction::kB2CPlaneReattach ||
              *best == proto::ResetAction::kB1ModemReset ||
              *best == proto::ResetAction::kA1ProfileReload);
}

TEST(Testbed, CustomUnknownDpLearnsDataPlaneAction) {
  core::NetRecord learner(0.2);
  Testbed tb(22, Scheme::kSeedR);
  tb.set_learner(&learner);
  tb.bring_up();
  const auto out = tb.run_dp_failure(DpFailure::kCustomUnknown,
                                     sim::minutes(10));
  ASSERT_TRUE(out.recovered);
  const auto best = learner.best_action(Testbed::kCustomDpCode);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == proto::ResetAction::kB3DPlaneReset ||
              *best == proto::ResetAction::kA3DPlaneConfigUpdate);
}

// ------------------------------------------------------ channel security

TEST(Testbed, SeedChannelCountersAdvance) {
  Testbed tb(23, Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  (void)tb.run_cp_failure(CpFailure::kIdentityDesync);
  EXPECT_GE(tb.core().stats().diag_downlinks, 1u);
  EXPECT_GE(tb.dev().applet().stats().fragments_acked, 1u);
}

TEST(Testbed, AppletStorageStaysWithinEsimBudget) {
  Testbed tb(24, Scheme::kSeedR);
  tb.bring_up();
  (void)tb.run_dp_failure(DpFailure::kOutdatedDnn);
  EXPECT_LT(tb.dev().applet().storage_used_bytes(),
            seed::params::kSimEepromBytes);
}

// Mixture sampling sanity.
TEST(Testbed, Table1MixtureRoughlyMatchesPlaneSplit) {
  sim::Rng rng(25);
  int cp = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (sample_table1_failure(rng).control_plane) ++cp;
  }
  EXPECT_NEAR(static_cast<double>(cp) / n, 0.562, 0.02);
}

// ------------------------------------------------------- Table-1 runs

// The schedule of every Table-1 bench (perfbench's paper_matrix keeps a
// copy): every mix draw of Rng(seed) is consumed, and the k-th kept
// sample (1-based) runs under testbed seed seed * 131 + k.
TEST(Table1Runs, FollowTheSeedTimes131Schedule) {
  const std::optional<nas::Plane> planes[] = {
      std::nullopt, nas::Plane::kControl, nas::Plane::kData};
  for (const std::uint64_t seed : {20220405ULL, 20260806ULL}) {
    for (const std::optional<nas::Plane> plane : planes) {
      const std::vector<Table1Run> runs = table1_runs(seed, 40, plane);
      ASSERT_EQ(runs.size(), 40u);
      sim::Rng mix(seed);
      std::uint64_t k = 0;
      for (const Table1Run& r : runs) {
        SampledFailure f = sample_table1_failure(mix);
        while (plane &&
               f.control_plane != (*plane == nas::Plane::kControl)) {
          f = sample_table1_failure(mix);
        }
        ++k;
        EXPECT_EQ(r.tb_seed, seed * 131 + k);
        EXPECT_EQ(r.f.control_plane, f.control_plane);
        EXPECT_EQ(r.f.cp, f.cp);
        EXPECT_EQ(r.f.dp, f.dp);
      }
    }
  }
}

TEST(Testbed, RunTable1ArmsOperatorKnownCustomAction) {
  for (const bool cp : {true, false}) {
    Testbed tb(26, Scheme::kSeedR);
    tb.secondary_congestion_prob = 0;
    tb.bring_up();
    SampledFailure f;
    f.control_plane = cp;
    f.cp = CpFailure::kCustomUnknown;
    f.dp = DpFailure::kCustomUnknown;
    const Outcome out = tb.run_table1(f);
    EXPECT_TRUE(out.recovered) << (cp ? "cp" : "dp");
    EXPECT_EQ(tb.core().faults().custom_action_known,
              cp ? proto::ResetAction::kB2CPlaneReattach
                 : proto::ResetAction::kB3DPlaneReset);
  }
}

TEST(Testbed, RunTable1LeavesStandardCausesWithoutCustomAction) {
  Testbed tb(27, Scheme::kSeedR);
  tb.secondary_congestion_prob = 0;
  tb.bring_up();
  SampledFailure f;
  f.cp = CpFailure::kQuickTransient;
  EXPECT_TRUE(tb.run_table1(f).recovered);
  EXPECT_FALSE(tb.core().faults().custom_action_known.has_value());
}

TEST(Table1Tally, ClassifiesOutcomesAndRatesRecoverableRuns) {
  SampledFailure desync;
  desync.cp = CpFailure::kIdentityDesync;
  SampledFailure unauthorized;
  unauthorized.cp = CpFailure::kUnauthorized;
  SampledFailure expired;
  expired.control_plane = false;
  expired.dp = DpFailure::kExpiredPlan;
  SampledFailure stale_dnn;
  stale_dnn.control_plane = false;
  stale_dnn.dp = DpFailure::kOutdatedDnn;
  // A cp sample whose unused dp field names a user-action cause.
  SampledFailure cp_with_expired_dp = desync;
  cp_with_expired_dp.dp = DpFailure::kExpiredPlan;
  EXPECT_FALSE(needs_user_action(desync));
  EXPECT_TRUE(needs_user_action(unauthorized));
  EXPECT_TRUE(needs_user_action(expired));
  EXPECT_FALSE(needs_user_action(stale_dnn));
  EXPECT_FALSE(needs_user_action(cp_with_expired_dp));

  const Outcome recovered{true, 2.0, false};
  const Outcome timed_out{false, 2400.0, false};
  const Outcome notified{false, 2400.0, true};

  Table1Tally t;
  EXPECT_DOUBLE_EQ(t.recovery_rate(), 1.0);  // no recoverable runs yet
  t.add(desync, recovered);
  t.add(stale_dnn, Outcome{true, 0.5, false});
  t.add(unauthorized, recovered);  // recovered wins over the cause
  t.add(unauthorized, timed_out);
  t.add(expired, timed_out);
  t.add(desync, notified);  // the device asked the user to act
  t.add(desync, timed_out);
  t.add(cp_with_expired_dp, timed_out);
  EXPECT_EQ(t.total, 8);
  EXPECT_EQ(t.recovered, 3);
  EXPECT_EQ(t.user_action, 3);
  ASSERT_EQ(t.disruption.count(), 3u);
  EXPECT_DOUBLE_EQ(t.disruption.median(), 2.0);
  EXPECT_DOUBLE_EQ(t.recovery_rate(), 3.0 / 5.0);

  Table1Tally only_user_action;
  only_user_action.add(expired, timed_out);
  EXPECT_DOUBLE_EQ(only_user_action.recovery_rate(), 1.0);
}

}  // namespace
}  // namespace seed::testbed
