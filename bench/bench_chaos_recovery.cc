// Chaos-recovery bench: how well does SEED's own recovery path hold up
// when the chaos layer impairs it? Sweeps an impairment level p (applied
// as AT-command failure probability plus loss on both collaboration
// directions) across Legacy / SEED-U / SEED-R over the Table-1 failure
// mix, and reports recovery rate and the disruption distribution per
// cell. One JSON line per cell goes to BENCH_chaos.json.
//
// p = 0 runs without a chaos engine at all — the unimpaired baseline the
// acceptance bound (impaired disruption <= 3x baseline at p = 0.1) is
// measured against. The run list, the run and the tally are Table 4's
// (testbed::table1_runs, Testbed::run_table1, testbed::Table1Tally);
// the runs fan out over the FleetRunner pool and fold back in order, so
// the output is byte-identical for any thread count.
#include <fstream>
#include <iostream>
#include <vector>

#include "chaos/chaos.h"
#include "fleet_bench.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"

namespace {

using namespace seed;
using namespace seed::testbed;

constexpr std::uint64_t kSeed = 20260806;
constexpr int kRuns = 40;
constexpr double kLevels[] = {0.0, 0.05, 0.10, 0.20};

chaos::ChaosConfig impairment(double p) {
  chaos::ChaosConfig cfg;
  cfg.at_fail = p;
  cfg.downlink_drop = p;
  cfg.uplink_drop = p;
  return cfg;
}

struct CellResult {
  Table1Tally tally;
  std::uint64_t injections = 0;
};

struct RunOut {
  Outcome out;
  std::uint64_t injections = 0;
};

CellResult run_cell(const sim::FleetRunner& fleet, device::Scheme scheme,
                    double p, std::uint64_t seed) {
  const std::vector<Table1Run> jobs = table1_runs(seed, kRuns);
  const auto outs = fleet.map<RunOut>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        Testbed tb(jobs[info.index].tb_seed, scheme);
        if (p > 0.0) tb.enable_chaos(impairment(p));
        tb.bring_up();
        RunOut r;
        r.out = tb.run_table1(jobs[info.index].f);
        if (tb.chaos() != nullptr) r.injections = tb.chaos()->stats().total();
        return r;
      });

  CellResult res;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    res.tally.add(jobs[i].f, outs[i].out);
    res.injections += outs[i].injections;
  }
  return res;
}

void append_json(std::ostream& os, const char* scheme, double p,
                 const CellResult& r) {
  const Table1Tally& t = r.tally;
  os << "{\"bench\":\"chaos_recovery\",\"scheme\":\"" << scheme
     << "\",\"impair_p\":" << p << ",\"runs\":" << t.total
     << ",\"recovered\":" << t.recovered
     << ",\"user_action\":" << t.user_action
     << ",\"recovery_rate\":" << t.recovery_rate()
     << ",\"injections\":" << r.injections << ",\"disruption_s\":{"
     << "\"p10\":" << t.disruption.percentile(10)
     << ",\"p50\":" << t.disruption.median()
     << ",\"p90\":" << t.disruption.percentile(90)
     << ",\"p99\":" << t.disruption.percentile(99) << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));
  constexpr std::size_t kCells =
      (sizeof(kLevels) / sizeof(kLevels[0])) * 3;
  benchutil::FleetStopwatch watch("chaos_recovery", fleet.threads(),
                                  kCells * kRuns);

  metrics::print_banner(
      std::cout,
      "Chaos recovery: rate and disruption vs impairment p (AT fail + "
      "collab loss; seed " + std::to_string(kSeed) + ", " +
      std::to_string(kRuns) + " runs/cell)");

  struct Cell {
    device::Scheme scheme;
    const char* name;
  };
  const Cell cells[] = {{device::Scheme::kLegacy, "Legacy"},
                        {device::Scheme::kSeedU, "SEED-U"},
                        {device::Scheme::kSeedR, "SEED-R"}};

  std::ofstream json("BENCH_chaos.json");
  metrics::Table t({"Handling", "p", "Recovery", "Median (s)", "90th (s)",
                    "99th (s)", "Injections"});
  // Per-scheme unimpaired medians anchor the <=3x acceptance ratio.
  for (const Cell& c : cells) {
    double baseline_median = 0.0;
    for (double p : kLevels) {
      // Seed each cell off (scheme, p) so adding a level never reshuffles
      // the other cells' runs.
      const std::uint64_t cell_seed =
          kSeed + static_cast<std::uint64_t>(&c - cells) * 1000 +
          static_cast<std::uint64_t>(p * 100);
      const CellResult r = run_cell(fleet, c.scheme, p, cell_seed);
      const metrics::Samples& d = r.tally.disruption;
      if (p == 0.0) baseline_median = d.median();
      append_json(json, c.name, p, r);
      t.row({c.name, metrics::Table::num(p, 2),
             metrics::Table::pct(r.tally.recovery_rate(), 1),
             metrics::Table::num(d.median(), 1),
             metrics::Table::num(d.percentile(90), 1),
             metrics::Table::num(d.percentile(99), 1),
             std::to_string(r.injections)});
      if (p == 0.10 && baseline_median > 0.0) {
        std::cout << "  [" << c.name << "] p=0.10 median/baseline = "
                  << metrics::Table::num(d.median() / baseline_median, 2)
                  << "x (acceptance bound 3x)\n";
      }
    }
  }
  t.print(std::cout);
  watch.append_json();
  std::cout << "\nwall: " << watch.elapsed_ms()
            << " ms; cells appended to BENCH_chaos.json\n";
  return 0;
}
