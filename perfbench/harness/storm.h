// The city storm shared by city_1node and each metro_sharded shard: the
// loop bench_city_storm and testbed::CityWorkload run on a brought-up
// MultiTestbed, with bench-side spans around the calls into it.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "testbed/multi_testbed.h"

namespace perfbench {

/// Table 1 mix at one injection per UE per 2 simulated minutes plus the
/// rolling congestion wave for `storm_min` simulated minutes, then a
/// 3-minute drain. The schedule is drawn from the testbed's own RNG, so
/// it is fixed in simulated time by the testbed seed. Spans
/// "testbed.inject" and "sim.run_for" go to `log` when it is non-null;
/// the event-queue depth at each injection goes to `queued` when it is.
/// Returns the injection count.
std::uint64_t run_storm(seed::testbed::MultiTestbed& city,
                        long long storm_min, SpanLog* log,
                        std::vector<double>* queued);

/// Adds the deterministic counters of a finished storm: simulator events,
/// healthy UEs, CoreStats, diagnosis-cache stats, learner causes, and the
/// modem/applet stats summed over every device.
void add_city_counters(seed::testbed::MultiTestbed& city, Counters& c);

/// One traced pass of a storm workload, summed over its shards.
struct StormTrace {
  SpanLog spans;  // testbed.construct/bring_up/inject, sim.run_for,
                  // obs.export/decode, obs.observer leaves
  ZoneTable zones;
  Counters counters;  // add_city_counters keys
  std::vector<double> queued;
  std::uint64_t setup_events = 0;
  std::uint64_t storm_events = 0;
  std::uint64_t injections = 0;
  std::uint64_t events_observed = 0;
  std::uint64_t events_retained = 0;
  std::uint64_t trace_bytes = 0;
  std::size_t ues = 0;
  double busy_s = 0.0;  // host time of the pass's shard bodies
};

/// Adds the simcore, testbed, counter-based and obs layer metrics of a
/// traced storm pass.
void add_storm_layers(LayerSamples& layers, const StormTrace& t);

/// The counter keys of add_city_counters that BENCH_city.json's 1k
/// section records, as (file field, counter key).
extern const std::vector<std::pair<std::string, std::string>>
    kCity1kFields;

}  // namespace perfbench
