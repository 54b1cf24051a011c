// Per-UE flight recorder: bounded rings, blackbox freezing on terminal
// failures, and the end-to-end acceptance path — a chaos-induced
// terminal failure must leave a blackbox holding that UE's last events.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "testbed/testbed.h"

namespace seed {
namespace {

using obs::BlackboxSnapshot;
using obs::Event;
using obs::EventKind;
using obs::FlightRecorder;
using obs::Origin;

Event ev(std::uint32_t ue, std::int64_t at_us, EventKind kind) {
  Event e;
  e.ue = ue;
  e.at_us = at_us;
  e.kind = kind;
  return e;
}

Event terminal(std::uint32_t ue, std::int64_t at_us, const char* reason) {
  Event e = ev(ue, at_us, EventKind::kTerminalFailure);
  e.origin = Origin::kSim;
  e.detail = reason;
  return e;
}

TEST(FlightRecorder_, RingIsBoundedAndBlackboxHoldsLastN) {
  FlightRecorder recorder(4);
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(7, i * 1000, EventKind::kFailureDetected));
  }
  events.push_back(terminal(7, 10'000, "gave up"));
  recorder.ingest(events);

  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  EXPECT_EQ(box.ue, 7u);
  EXPECT_EQ(box.at_us, 10'000);
  EXPECT_EQ(box.reason, "gave up");
  // Capacity bounds the snapshot: the trigger plus the 3 events before it.
  ASSERT_EQ(box.events.size(), 4u);
  EXPECT_EQ(box.events.front().at_us, 7000);
  EXPECT_EQ(box.events.back().kind, EventKind::kTerminalFailure);
}

TEST(FlightRecorder_, UesKeepSeparateRings) {
  FlightRecorder recorder(8);
  std::vector<Event> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(ev(1, i * 100, EventKind::kFailureDetected));
    events.push_back(ev(2, i * 100 + 50, EventKind::kResetIssued));
  }
  events.push_back(terminal(1, 1000, "ue1 dies"));
  recorder.ingest(events);

  EXPECT_EQ(recorder.tracked_ues(), 2u);
  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  EXPECT_EQ(box.ue, 1u);
  ASSERT_EQ(box.events.size(), 4u);  // ue 1's events only, not ue 2's
  for (const Event& e : box.events) EXPECT_EQ(e.ue, 1u);
}

TEST(FlightRecorder_, RepeatedTerminalsEachFreezeABlackbox) {
  FlightRecorder recorder(8);
  recorder.ingest({ev(3, 0, EventKind::kFailureDetected),
                   terminal(3, 100, "watchdog"),
                   ev(3, 200, EventKind::kFailureDetected),
                   terminal(3, 300, "exhausted")});
  ASSERT_EQ(recorder.blackboxes().size(), 2u);
  EXPECT_EQ(recorder.blackboxes()[0].reason, "watchdog");
  EXPECT_EQ(recorder.blackboxes()[0].events.size(), 2u);
  // The ring kept rolling: the second box contains the whole history.
  EXPECT_EQ(recorder.blackboxes()[1].reason, "exhausted");
  EXPECT_EQ(recorder.blackboxes()[1].events.size(), 4u);
}

TEST(FlightRecorder_, LogAndAlertLinesStayOutOfTheRing) {
  FlightRecorder recorder(8);
  Event log = ev(5, 0, EventKind::kLog);
  Event alert = ev(5, 10, EventKind::kSloAlert);
  recorder.ingest({log, alert, ev(5, 20, EventKind::kFailureDetected),
                   terminal(5, 30, "done")});
  ASSERT_EQ(recorder.blackboxes().size(), 1u);
  EXPECT_EQ(recorder.blackboxes().front().events.size(), 2u);
}

TEST(FlightRecorder_, MergeAndDumpAreDeterministic) {
  FlightRecorder a(4), b(4);
  a.ingest({ev(1, 0, EventKind::kFailureDetected), terminal(1, 10, "a")});
  b.ingest({ev(2, 0, EventKind::kFailureDetected), terminal(2, 10, "b")});
  a.merge_from(b);
  ASSERT_EQ(a.blackboxes().size(), 2u);
  std::ostringstream os;
  a.dump_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"blackbox\":{\"ue\":1,"), std::string::npos);
  EXPECT_NE(out.find("{\"blackbox\":{\"ue\":2,"), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"a\""), std::string::npos);
  // 2 header lines + 2 events per box.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);
}

TEST(FlightRecorder_, SeededStreamMatchesMapAndDequeReference) {
  constexpr std::size_t kDepth = 6;
  std::mt19937 rng(99);
  const std::uint32_t ues[] = {0, 1, 2, 7, 40, 41, 1000, 0xFFFFFFFFu};
  std::vector<Event> stream;
  for (int i = 0; i < 4000; ++i) {
    const std::uint32_t ue = ues[rng() % 8];
    const std::uint32_t roll = rng() % 100;
    Event e = roll < 3    ? terminal(ue, i, roll == 0 ? "watchdog" : "ladder")
              : roll < 8  ? ev(ue, i, EventKind::kLog)
              : roll < 10 ? ev(ue, i, EventKind::kSloAlert)
                          : ev(ue, i, static_cast<EventKind>(rng() % 6));
    e.seq = static_cast<std::uint64_t>(i) + 1;
    stream.push_back(std::move(e));
  }

  // Reference: the ordered-map-of-deques model the recorder was written as.
  std::map<std::uint32_t, std::deque<Event>> rings;
  std::vector<BlackboxSnapshot> want;
  for (const Event& e : stream) {
    if (e.kind == EventKind::kLog || e.kind == EventKind::kSloAlert) continue;
    std::deque<Event>& ring = rings[e.ue];
    ring.push_back(e);
    if (ring.size() > kDepth) ring.pop_front();
    if (e.kind != EventKind::kTerminalFailure) continue;
    want.push_back({e.ue, e.at_us, e.detail, {ring.begin(), ring.end()}});
  }

  FlightRecorder recorder(kDepth);
  recorder.ingest(stream);
  EXPECT_EQ(recorder.tracked_ues(), rings.size());
  ASSERT_EQ(recorder.blackboxes().size(), want.size());
  EXPECT_GT(want.size(), 50u);  // every UE dies more than once
  for (std::size_t i = 0; i < want.size(); ++i) {
    const BlackboxSnapshot& got = recorder.blackboxes()[i];
    EXPECT_EQ(got.ue, want[i].ue);
    EXPECT_EQ(got.at_us, want[i].at_us);
    EXPECT_EQ(got.reason, want[i].reason);
    EXPECT_EQ(got.events, want[i].events) << "blackbox " << i;
  }
}

// ------------------------------------------- acceptance (integration)

// A chaos config that pins every SEED-U reset action (A1-A3) to fail:
// the hardened ladder runs out of rungs and the failure goes terminal.
TEST(FlightRecorder_, ChaosExhaustionLeavesABlackbox) {
  obs::Tracer& t = obs::Tracer::instance();
  t.enable(false);
  t.clear();
  t.reset_span_counter();
  FlightRecorder recorder(32);

  testbed::Testbed tb(/*seed=*/42, device::Scheme::kSeedU);
  tb.secondary_congestion_prob = 0;
  chaos::ChaosConfig cfg;
  cfg.action_fail[1] = 1.0;  // A1 modem restart
  cfg.action_fail[2] = 1.0;  // A2 config update
  cfg.action_fail[3] = 1.0;  // A3 SIM refresh
  tb.enable_chaos(cfg);
  tb.bring_up();

  t.enable(true);
  t.add_observer(&recorder);
  (void)tb.run_cp_failure(testbed::CpFailure::kOutdatedPlmn);
  t.remove_observer(&recorder);

  // Every recovery rung failed, so SEED went terminal (ladder exhaustion
  // or watchdog abandonment) and the recorder froze a blackbox with the
  // UE's final moments.
  ASSERT_FALSE(recorder.blackboxes().empty());
  const BlackboxSnapshot& box = recorder.blackboxes().front();
  ASSERT_FALSE(box.events.empty());
  EXPECT_LE(box.events.size(), recorder.capacity());
  EXPECT_EQ(box.events.back().kind, EventKind::kTerminalFailure);
  EXPECT_FALSE(box.reason.empty());
  // The trail leads up to the terminal event: at least one reset attempt
  // should be visible in the final window.
  bool saw_reset = false;
  for (const Event& e : box.events) {
    saw_reset |= e.kind == EventKind::kResetIssued;
  }
  EXPECT_TRUE(saw_reset);

  t.enable(false);
  t.clear();
}

}  // namespace
}  // namespace seed
