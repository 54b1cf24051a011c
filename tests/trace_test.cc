#include <gtest/gtest.h>

#include "nas/messages.h"
#include "simcore/rng.h"
#include "trace/dataset.h"

namespace seed::trace {
namespace {

TEST(Dataset, GeneratorHitsRequestedScale) {
  sim::Rng rng(1);
  const Dataset ds = generate_dataset(rng, 5000);
  EXPECT_EQ(ds.records.size(), 5000u);
}

TEST(Dataset, FailureRatioMatchesPaper) {
  sim::Rng rng(2);
  const Dataset ds = generate_dataset(rng);
  const AnalysisResult res = analyze(ds);
  // Paper §3.1: 2832 / 24000 ≈ 11.8%, "over 10% failure ratio".
  EXPECT_NEAR(res.failure_ratio(), 0.118, 0.01);
  EXPECT_GT(res.failure_ratio(), 0.10);
}

TEST(Dataset, PlaneSplitMatchesTable1) {
  sim::Rng rng(3);
  const Dataset ds = generate_dataset(rng);
  const AnalysisResult res = analyze(ds);
  const double cp = static_cast<double>(res.control_plane_failures) /
                    static_cast<double>(res.failures);
  EXPECT_NEAR(cp, 0.562, 0.03);
}

TEST(Dataset, Table1TopCausesInOrder) {
  sim::Rng rng(20220822);
  const Dataset ds = generate_dataset(rng);
  const AnalysisResult res = analyze(ds);
  const auto cp = res.top_causes(nas::Plane::kControl, 5);
  ASSERT_EQ(cp.size(), 5u);
  EXPECT_EQ(cp[0].cause, 9);    // UE identity cannot be derived
  EXPECT_EQ(cp[1].cause, 15);   // no suitable cells
  EXPECT_EQ(cp[2].cause, 11);   // PLMN not allowed
  const auto dp = res.top_causes(nas::Plane::kData, 5);
  ASSERT_EQ(dp.size(), 5u);
  EXPECT_EQ(dp[0].cause, 33);   // service option not subscribed
  EXPECT_EQ(dp[1].cause, 96);   // invalid mandatory information
}

TEST(Dataset, EveryOutcomeMessageDecodes) {
  sim::Rng rng(4);
  const Dataset ds = generate_dataset(rng, 3000);
  nas::DecodeError err;
  for (const auto& rec : ds.records) {
    EXPECT_TRUE(nas::decode_message(rec.outcome_message, &err).has_value())
        << nas::decode_error_name(err);
  }
  EXPECT_EQ(analyze(ds).undecodable, 0u);
}

TEST(Dataset, RecordsSortedByTime) {
  sim::Rng rng(5);
  const Dataset ds = generate_dataset(rng);
  for (std::size_t i = 1; i < ds.records.size(); ++i) {
    EXPECT_LE(ds.records[i - 1].timestamp_s, ds.records[i].timestamp_s);
  }
}

TEST(Dataset, SerializeDeserializeRoundTrip) {
  sim::Rng rng(6);
  const Dataset ds = generate_dataset(rng, 500);
  const Bytes blob = ds.serialize();
  const auto back = Dataset::deserialize(blob);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records.size(), ds.records.size());
  for (std::size_t i = 0; i < ds.records.size(); ++i) {
    EXPECT_EQ(back->records[i].failed, ds.records[i].failed);
    EXPECT_EQ(back->records[i].outcome_message,
              ds.records[i].outcome_message);
    EXPECT_EQ(back->records[i].carrier, ds.records[i].carrier);
  }
}

TEST(Dataset, DeserializeRejectsBadMagic) {
  sim::Rng rng(7);
  Bytes blob = generate_dataset(rng, 10).serialize();
  blob[0] = 'X';
  EXPECT_FALSE(Dataset::deserialize(blob).has_value());
}

TEST(Dataset, DeserializeRejectsTruncation) {
  sim::Rng rng(8);
  const Bytes blob = generate_dataset(rng, 10).serialize();
  for (std::size_t len : std::vector<std::size_t>{0, 4, 8, 12, blob.size() - 1}) {
    EXPECT_FALSE(
        Dataset::deserialize(BytesView(blob.data(), len)).has_value())
        << "len " << len;
  }
}

TEST(Dataset, DeserializeRejectsTrailingGarbage) {
  sim::Rng rng(9);
  Bytes blob = generate_dataset(rng, 10).serialize();
  blob.push_back(0);
  EXPECT_FALSE(Dataset::deserialize(blob).has_value());
}

TEST(Dataset, AnalyzeCountsOnlyRejectsAsFailures) {
  Dataset ds;
  ProcedureRecord ok;
  ok.failed = false;
  nas::RegistrationAccept acc;
  nas::encode_message_into(nas::NasMessage(acc), ok.outcome_message);
  ds.records.push_back(ok);

  ProcedureRecord bad;
  bad.failed = true;
  nas::RegistrationReject rej;
  rej.cause = 9;
  nas::encode_message_into(nas::NasMessage(rej), bad.outcome_message);
  ds.records.push_back(bad);

  const AnalysisResult res = analyze(ds);
  EXPECT_EQ(res.procedures, 2u);
  EXPECT_EQ(res.failures, 1u);
  ASSERT_EQ(res.causes.size(), 1u);
  EXPECT_EQ(res.causes[0].cause, 9);
  EXPECT_DOUBLE_EQ(res.causes[0].fraction_of_failures, 1.0);
}

TEST(Dataset, TopCausesRespectsK) {
  sim::Rng rng(10);
  const Dataset ds = generate_dataset(rng);
  const AnalysisResult res = analyze(ds);
  EXPECT_EQ(res.top_causes(nas::Plane::kControl, 3).size(), 3u);
  EXPECT_LE(res.top_causes(nas::Plane::kData, 100).size(), res.causes.size());
}

TEST(Dataset, DeterministicForFixedSeed) {
  sim::Rng a(42), b(42);
  const Bytes blob_a = generate_dataset(a, 200).serialize();
  const Bytes blob_b = generate_dataset(b, 200).serialize();
  EXPECT_EQ(blob_a, blob_b);
}

}  // namespace
}  // namespace seed::trace
