// Reproduces paper Table 4: disruption-time percentiles (median / 90th)
// with legacy handling vs SEED-U vs SEED-R for control-plane, data-plane
// and data-delivery failures — plus the §7.1.1 coverage numbers (89.4% of
// c-plane and 95.5% of d-plane failures handled; the rest need user
// action).
//
// Every c-/d-plane cell is a fleet over one plane's Table-1 run list
// (testbed::table1_runs), each run a Testbed::run_table1 counted by a
// testbed::Table1Tally; the bench only drives the fleet and prints. The
// runs fold back in shard order, so the printed table is byte-identical
// for any thread count (CI cmp's it against BENCH_table4.txt at 1 and 8
// workers). SEED_FLEET_THREADS / --threads=N pin the pool; wall-clock is
// appended to BENCH_fleet.json.
#include <iostream>

#include "fleet_bench.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

Table1Tally run_plane(const sim::FleetRunner& fleet, device::Scheme scheme,
                      nas::Plane plane, std::uint64_t seed, int runs) {
  const std::vector<Table1Run> jobs = table1_runs(seed, runs, plane);
  const auto outs = fleet.map<Outcome>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        Testbed tb(jobs[info.index].tb_seed, scheme);
        tb.bring_up();
        return tb.run_table1(jobs[info.index].f);
      });
  Table1Tally res;
  for (std::size_t i = 0; i < outs.size(); ++i) res.add(jobs[i].f, outs[i]);
  return res;
}

metrics::Samples run_delivery(const sim::FleetRunner& fleet,
                              device::Scheme scheme, std::uint64_t seed,
                              int runs) {
  const auto outs = fleet.map<Outcome>(
      static_cast<std::size_t>(runs), [&](const sim::ShardInfo& info) {
        Testbed tb(seed * 977 + static_cast<std::uint64_t>(info.index),
                   scheme);
        tb.bring_up();
        // Table 4's delivery rows use the reconnection-recoverable class
        // (outdated gateway status in mobility, §7.1.1).
        return tb.run_delivery_failure(DeliveryFailure::kStaleSession,
                                       sim::minutes(40));
      });
  metrics::Samples disruption;
  for (const Outcome& out : outs) {
    if (out.recovered) disruption.add(out.disruption_s);
  }
  return disruption;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 20220404;
  constexpr int kRuns = 60;
  constexpr nas::Plane kCp = nas::Plane::kControl;
  constexpr nas::Plane kDp = nas::Plane::kData;

  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));
  benchutil::FleetStopwatch watch("table4_disruption", fleet.threads(),
                                  static_cast<std::size_t>(kRuns) * 11);

  metrics::print_banner(std::cout,
                        "Table 4: disruption percentiles (s), legacy vs "
                        "SEED-U vs SEED-R (seed " + std::to_string(kSeed) +
                        ", " + std::to_string(kRuns) + " runs/cell)");

  struct Row {
    const char* klass;
    const char* scheme;
    metrics::Samples disruption;
    const char* paper;
  };
  std::vector<Row> rows;
  rows.push_back({"Control Plane", "Legacy",
                  run_plane(fleet, device::Scheme::kLegacy, kCp, kSeed + 1,
                            kRuns).disruption,
                  "12.4 / 1024.0"});
  rows.push_back({"", "SEED-U",
                  run_plane(fleet, device::Scheme::kSeedU, kCp, kSeed + 1,
                            kRuns).disruption,
                  "8.0 / 76.7"});
  rows.push_back({"", "SEED-R",
                  run_plane(fleet, device::Scheme::kSeedR, kCp, kSeed + 1,
                            kRuns).disruption,
                  "4.4 / 48.6"});
  rows.push_back({"Data Plane", "Legacy",
                  run_plane(fleet, device::Scheme::kLegacy, kDp, kSeed + 2,
                            kRuns).disruption,
                  "476.0 / 2659.4"});
  rows.push_back({"", "SEED-U",
                  run_plane(fleet, device::Scheme::kSeedU, kDp, kSeed + 2,
                            kRuns).disruption,
                  "0.9 / 1.0"});
  rows.push_back({"", "SEED-R",
                  run_plane(fleet, device::Scheme::kSeedR, kDp, kSeed + 2,
                            kRuns).disruption,
                  "0.6 / 0.7"});
  rows.push_back({"Data Delivery", "Legacy",
                  run_delivery(fleet, device::Scheme::kLegacy, kSeed + 3,
                               kRuns),
                  "31.2 / 45.7"});
  rows.push_back({"", "SEED-U",
                  run_delivery(fleet, device::Scheme::kSeedU, kSeed + 3,
                               kRuns),
                  "1.1 / 1.3"});
  rows.push_back({"", "SEED-R",
                  run_delivery(fleet, device::Scheme::kSeedR, kSeed + 3,
                               kRuns),
                  "0.4 / 0.7"});

  metrics::Table t({"Failures", "Handling", "Median (s)", "90th (s)",
                    "Paper med/90th"});
  for (const auto& row : rows) {
    t.row({row.klass, row.scheme,
           metrics::Table::num(row.disruption.median(), 1),
           metrics::Table::num(row.disruption.percentile(90), 1),
           row.paper});
  }
  t.print(std::cout);

  // §7.1.1 coverage: fraction of failures SEED handles (the remainder
  // requires user action: unauthorized subscribers / expired plans).
  const auto cp =
      run_plane(fleet, device::Scheme::kSeedU, kCp, kSeed + 4, kRuns);
  const auto dp =
      run_plane(fleet, device::Scheme::kSeedU, kDp, kSeed + 5, kRuns);
  std::cout << "\nCoverage (SEED-U): control-plane "
            << metrics::Table::pct(
                   static_cast<double>(cp.recovered) / cp.total, 1)
            << " handled (paper 89.4%), data-plane "
            << metrics::Table::pct(
                   static_cast<double>(dp.recovered) / dp.total, 1)
            << " handled (paper 95.5%); unhandled cases required user "
               "action ("
            << cp.user_action + dp.user_action << " runs)\n";
  watch.append_json();
  return 0;
}
