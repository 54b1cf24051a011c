// Property tests for the shared diagnosis cache (§5.2 amortization):
// cached and uncached Fig. 8 classification must be byte-identical over
// randomized failure contexts, including across cache invalidations
// triggered by subscriber mutations mid-stream.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/codec.h"
#include "corenet/subscriber.h"
#include "nas/causes.h"
#include "nas/ie.h"
#include "obs/trace.h"
#include "seed/infra_assist.h"
#include "seed/online_learning.h"
#include "seed/verdict.h"
#include "simcore/rng.h"
#include "testbed/labeled_scenarios.h"
#include "testbed/multi_testbed.h"
#include "testbed/testbed.h"

namespace seed::core {
namespace {

using proto::ResetAction;

// Flattens an AssistAdvice to comparable wire bytes: the encoded DiagInfo
// (exactly what the core protects and fragments to the SIM) plus the
// reset-trigger flag.
Bytes payload_of(const AssistAdvice& a) {
  Writer w;
  if (a.diag) a.diag->encode_into(w);
  w.u8(a.trigger_dplane_reset ? 1 : 0);
  return std::move(w).take();
}

// Randomized Fig. 8 input covering every branch. `dnn` stands in for the
// subscriber-derived config input — "mutating the subscriber's DNNs"
// changes these bytes, exactly like CoreNetwork::config_for would.
FailureEvent random_event(sim::Rng& rng, const std::string& dnn) {
  FailureEvent e;
  e.network_initiated = rng.chance(0.7);
  e.device_responded = rng.chance(0.9);
  e.sim_reported_delivery = rng.chance(0.3);
  e.plane = rng.chance(0.5) ? nas::Plane::kControl : nas::Plane::kData;
  static const std::uint8_t kCauses[] = {0,  3,  9,  11, 22, 26,
                                         27, 29, 33, 70, 98, 111};
  e.standardized_cause = kCauses[rng.uniform_int(0, 11)];
  e.custom_cause = static_cast<CustomCause>(rng.uniform_int(0xc0, 0xcf));
  if (rng.chance(0.25)) {
    e.custom_action = static_cast<ResetAction>(rng.uniform_int(1, 6));
  }
  e.congested = rng.chance(0.2);
  e.congestion_wait_s = static_cast<std::uint16_t>(rng.uniform_int(5, 120));
  if (rng.chance(0.5)) {
    Writer w;
    nas::Dnn(dnn).encode(w);
    e.config = proto::ConfigPayload{nas::ConfigKind::kSuggestedDnn,
                                    w.bytes()};
  }
  return e;
}

NetRecord seeded_learner() {
  NetRecord learner(0.05);
  // Enough crowd-sourced mass that suggest() fires often but not always,
  // keeping the sigmoid gate's RNG draw in play.
  learner.absorb_one(0xc1, ResetAction::kB2CPlaneReattach, 20);
  learner.absorb_one(0xc7, ResetAction::kB1ModemReset, 3);
  learner.absorb_one(0xcd, ResetAction::kA3DPlaneConfigUpdate, 60);
  return learner;
}

TEST(DiagCacheProperty, CachedMatchesUncachedOver1kRandomContexts) {
  // Two independent but identically-seeded worlds: one classifies through
  // the cache, the other runs the tree every time. The learner-consulting
  // branch draws the RNG on *exactly* the events the cache bypasses, so
  // the two RNG streams stay in lockstep and every payload must match.
  sim::Rng gen(0x5eed);
  sim::Rng rng_uncached(7), rng_cached(7);
  NetRecord learner_uncached = seeded_learner();
  NetRecord learner_cached = seeded_learner();
  DiagnosisCache cache;

  std::string dnn = "internet";
  std::vector<FailureEvent> pool;  // earlier events, replayed for hits
  for (int i = 0; i < 1000; ++i) {
    if (i == 300 || i == 700) {
      // Subscriber DNN mutation mid-stream: the config input changes and
      // the owner explicitly invalidates (CoreNetwork does this off the
      // SubscriberDb mutation epoch).
      dnn = i == 300 ? "internet.v2" : "ims.roam";
      cache.invalidate();
    }
    // A city repeats itself: ~30% of failures are contexts some other
    // subscriber already hit (that repetition is what the cache earns
    // its keep on); the rest are fresh draws.
    const bool replay = !pool.empty() && gen.chance(0.3);
    const FailureEvent e = replay
                               ? pool[static_cast<std::size_t>(gen.uniform_int(
                                     0, static_cast<int>(pool.size()) - 1))]
                               : random_event(gen, dnn);
    if (!replay) pool.push_back(e);
    const AssistAdvice uncached =
        classify_failure(e, &learner_uncached, rng_uncached);
    const AssistAdvice cached =
        classify_failure_cached(e, &learner_cached, rng_cached, &cache);
    ASSERT_EQ(payload_of(uncached), payload_of(cached))
        << "divergence at event " << i;
  }
  const auto& st = cache.stats();
  EXPECT_EQ(st.invalidations, 2u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
  EXPECT_GT(st.bypasses, 0u);
  // The RNG streams finished in lockstep (same number of draws).
  EXPECT_EQ(rng_uncached.next(), rng_cached.next());
}

TEST(DiagCacheProperty, DigestCoversEveryConfigByte) {
  sim::Rng gen(11);
  const FailureEvent a = random_event(gen, "internet");
  FailureEvent b = a;
  if (!b.config) {
    Writer w;
    nas::Dnn("internet").encode(w);
    b.config = proto::ConfigPayload{nas::ConfigKind::kSuggestedDnn,
                                    w.bytes()};
  }
  FailureEvent c = b;
  c.config->value.back() ^= 0x01;  // one flipped payload bit
  EXPECT_NE(DiagnosisCache::digest(b), DiagnosisCache::digest(c));

  // Keyed correctness without any invalidation: the stale-subscriber
  // entry can never be returned for the mutated config.
  DiagnosisCache cache;
  sim::Rng rng(1);
  classify_failure_cached(b, nullptr, rng, &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  classify_failure_cached(c, nullptr, rng, &cache);
  EXPECT_EQ(cache.stats().misses, 2u);  // no false hit across mutation
  classify_failure_cached(b, nullptr, rng, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(DiagCacheProperty, LearnerConsultingEventsAreNeverCached) {
  FailureEvent e;
  e.network_initiated = true;
  e.standardized_cause = 0;  // unstandardized
  e.custom_cause = 0xc1;     // no custom_action -> consults the learner
  NetRecord learner = seeded_learner();
  EXPECT_FALSE(DiagnosisCache::cacheable(e, &learner));
  // Without a learner the same event is a pure function of its fields.
  EXPECT_TRUE(DiagnosisCache::cacheable(e, nullptr));
  // With an operator-known action the learner is not consulted.
  e.custom_action = ResetAction::kB1ModemReset;
  EXPECT_TRUE(DiagnosisCache::cacheable(e, &learner));

  e.custom_action.reset();
  DiagnosisCache cache;
  sim::Rng rng(3);
  classify_failure_cached(e, &learner, rng, &cache);
  classify_failure_cached(e, &learner, rng, &cache);
  EXPECT_EQ(cache.stats().bypasses, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DiagCacheProperty, InvalidateDropsEntriesButKeepsStats) {
  DiagnosisCache cache;
  sim::Rng gen(5), rng(9);
  for (int i = 0; i < 20; ++i) {
    classify_failure_cached(random_event(gen, "internet"), nullptr, rng,
                            &cache);
  }
  ASSERT_GT(cache.size(), 0u);
  const auto before = cache.stats();
  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().invalidations, before.invalidations + 1);
}

TEST(DiagCacheProperty, SubscriberDbBumpsMutationEpoch) {
  corenet::SubscriberDb db;
  const auto e0 = db.mutation_epoch();
  corenet::Subscriber sub;
  sub.supi = "310-260-0000000001";
  db.add(sub);
  EXPECT_GT(db.mutation_epoch(), e0);
  const auto e1 = db.mutation_epoch();
  db.register_known_dnn("edge");
  EXPECT_GT(db.mutation_epoch(), e1);
  const auto e2 = db.mutation_epoch();
  db.forget_dnn("edge");
  EXPECT_GT(db.mutation_epoch(), e2);
  const auto e3 = db.mutation_epoch();
  db.note_subscriber_mutation();
  EXPECT_EQ(db.mutation_epoch(), e3 + 1);
}

TEST(DiagCacheProperty, CoreInvalidatesOnSubscriberMutation) {
  // End-to-end: a cache-enabled core sees the db epoch move (the
  // kOutdatedDnn scenario mutates the subscriber's DNNs and the heal
  // re-registers the old one) and wipes between classifications.
  testbed::Testbed tb(1234, testbed::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0.0;
  tb.core().enable_diag_cache(true);
  tb.bring_up();
  const auto out = tb.run_dp_failure(testbed::DpFailure::kOutdatedDnn);
  EXPECT_TRUE(out.recovered);
  const DiagnosisCache* cache = tb.core().diag_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().hits + cache->stats().misses, 0u);
  EXPECT_GE(cache->stats().invalidations, 1u);
}

// --------------------------- cache correctness under ground-truth labels

/// A verdict minus its provenance: everything the diagnosis *decided*.
struct DecidedVerdict {
  std::uint32_t label;
  std::uint8_t plane;
  std::uint8_t cause;
  VerdictKind kind;
  std::uint8_t action;
  std::uint16_t wait_s;
  std::uint32_t learner_records;

  bool operator==(const DecidedVerdict&) const = default;
};

/// Runs the full labeled scenario pack on a fleet and returns the
/// ordered verdict stream as (decision, provenance) pairs.
std::vector<std::pair<DecidedVerdict, VerdictSource>> labeled_pack_verdicts(
    bool cache_on) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.reset_span_counter();
  tracer.enable(true);

  testbed::MultiOptions o;
  o.ue_count = testbed::LabeledScenarioGen::all_families().size();
  o.scheme = testbed::Scheme::kSeedU;
  o.seed_r_every = 1;  // all SEED-R
  o.diag_cache = cache_on;
  {
    testbed::MultiTestbed bed(777, o);
    bed.bring_up_all();
    testbed::LabeledScenarioGen gen(bed);
    testbed::LabeledScenarioGen::PackOptions pack;
    pack.rounds = 2;
    gen.run_pack(pack);
  }
  std::vector<obs::Event> events = tracer.events();
  tracer.enable(false);
  tracer.clear();

  std::vector<std::pair<DecidedVerdict, VerdictSource>> out;
  for (const obs::Event& e : events) {
    if (const auto v = verdict_from_event(e)) {
      out.emplace_back(
          DecidedVerdict{e.label, v->plane, v->cause, v->kind, v->action,
                         v->wait_s, v->learner_records},
          v->source);
    }
  }
  return out;
}

/// §5.2's amortization contract, checked over the whole labeled pack: a
/// cached diagnosis must be *observably identical* to the uncached one —
/// same labels, same decisions, same order — differing at most in the
/// tree -> cache provenance token. Learner-consulting decisions always
/// bypass the cache, so even learner_records agrees event for event.
TEST(DiagCacheLabeled, CachedAndUncachedVerdictStreamsMatch) {
  const auto cached = labeled_pack_verdicts(/*cache_on=*/true);
  const auto uncached = labeled_pack_verdicts(/*cache_on=*/false);
  ASSERT_GT(cached.size(), 0u);
  ASSERT_EQ(cached.size(), uncached.size());

  std::size_t cache_provenance = 0;
  for (std::size_t i = 0; i < cached.size(); ++i) {
    ASSERT_EQ(cached[i].first, uncached[i].first) << "verdict " << i;
    if (cached[i].second != uncached[i].second) {
      // The only provenance drift allowed: a cache replay of a tree
      // decision. Anything else (learner/report/sim flips) is a bug.
      EXPECT_EQ(cached[i].second, VerdictSource::kCache) << "verdict " << i;
      EXPECT_EQ(uncached[i].second, VerdictSource::kTree) << "verdict " << i;
      ++cache_provenance;
    }
  }
  // The pack repeats failure shapes (rounds = 2 + the shared bring-up
  // population), so the cache must actually replay something.
  EXPECT_GT(cache_provenance, 0u);
}

}  // namespace
}  // namespace seed::core
