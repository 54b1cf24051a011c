// Adversarial-survival bench: the semantic mutation storm of the chaos
// layer (field-aware header forgery, stale-fragment replay, unsolicited
// pre-security-context downlinks) against the hardened decoders and the
// peer penalty box. Three cells over the Table-1 failure mix on SEED-R
// (both collaboration directions live):
//
//   clean          — no chaos at all (purity + disruption baseline)
//   syntactic      — bit-flip corruption on both collab directions (the
//                    pre-existing chaos model; integrity check holds)
//   semantic_storm — every semantic injection point hot: the *decoders*
//                    and the quarantine machinery must hold the line
//
// Survival criteria (gated via perf_baseline.json):
//   - zero applet/decoder crashes in every cell (ASan/UBSan CI job runs
//     this bench too, giving the no-crash claim teeth)
//   - 100% recovery of recoverable failures under the storm
//   - deterministic mutation/reject/quarantine counts, byte-identical
//     for any fleet worker count (Table 4's run list, run and tally:
//     testbed::table1_runs, Testbed::run_table1, testbed::Table1Tally;
//     runs merged in order)
//
// BENCH_adversarial.json is a single JSON object so the exact gates can
// path into per-cell counters.
#include <fstream>
#include <iostream>
#include <string>
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

constexpr std::uint64_t kSeed = 20260807;
constexpr int kRuns = 40;

struct CellSpec {
  const char* name;
  bool chaos = false;
  chaos::ChaosConfig config;
};

std::vector<CellSpec> make_cells() {
  CellSpec clean;
  clean.name = "clean";

  CellSpec syntactic;
  syntactic.name = "syntactic";
  syntactic.chaos = true;
  syntactic.config.downlink_corrupt = 0.30;
  syntactic.config.uplink_corrupt = 0.30;

  CellSpec storm;
  storm.name = "semantic_storm";
  storm.chaos = true;
  storm.config.semantic_downlink = 0.50;
  storm.config.semantic_uplink = 0.50;
  storm.config.replay_downlink = 0.30;
  storm.config.unsolicited_downlink = 0.30;

  return {clean, syntactic, storm};
}

/// Per-run hardening counters, summed per cell.
struct Counters {
  std::uint64_t injections = 0;
  std::uint64_t mutations = 0;      // semantic points only
  std::uint64_t decode_rejects = 0;
  std::uint64_t malformed_rx = 0;
  std::uint64_t quarantine_drops = 0;
  std::uint64_t suspect_dropped = 0;
  std::uint64_t malformed_downlinks = 0;
  std::uint64_t applet_crashes = 0;

  Counters& operator+=(const Counters& o) {
    injections += o.injections;
    mutations += o.mutations;
    decode_rejects += o.decode_rejects;
    malformed_rx += o.malformed_rx;
    quarantine_drops += o.quarantine_drops;
    suspect_dropped += o.suspect_dropped;
    malformed_downlinks += o.malformed_downlinks;
    applet_crashes += o.applet_crashes;
    return *this;
  }
};

struct RunOut {
  Outcome out;
  Counters c;
};

struct CellResult {
  Table1Tally tally;
  Counters c;
};

CellResult run_cell(const sim::FleetRunner& fleet, const CellSpec& cell,
                    std::uint64_t seed) {
  const std::vector<Table1Run> jobs = table1_runs(seed, kRuns);
  const auto outs = fleet.map<RunOut>(
      jobs.size(), [&](const sim::ShardInfo& info) {
        Testbed tb(jobs[info.index].tb_seed, device::Scheme::kSeedR);
        if (cell.chaos) tb.enable_chaos(cell.config);
        tb.bring_up();
        RunOut r;
        r.out = tb.run_table1(jobs[info.index].f);
        if (tb.chaos() != nullptr) {
          const chaos::ChaosStats& cs = tb.chaos()->stats();
          r.c.injections = cs.total();
          r.c.mutations = cs.downlink_mutated + cs.uplink_mutated +
                          cs.downlink_replayed + cs.unsolicited_injected;
        }
        const corenet::CoreStats& core = tb.core().stats();
        r.c.decode_rejects = core.decode_rejects;
        r.c.malformed_rx = core.malformed_rx;
        r.c.quarantine_drops = core.quarantine_drops;
        r.c.suspect_dropped = core.suspect_reports_dropped;
        const applet::AppletStats& ap = tb.dev().applet().stats();
        r.c.malformed_downlinks = ap.malformed_downlinks;
        r.c.applet_crashes = ap.applet_crashes;
        return r;
      });

  CellResult res;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    res.tally.add(jobs[i].f, outs[i].out);
    res.c += outs[i].c;
  }
  return res;
}

void append_cell_json(std::ostream& os, const CellSpec& cell,
                      const CellResult& r) {
  const Table1Tally& t = r.tally;
  os << "\"" << cell.name << "\":{\"runs\":" << t.total
     << ",\"recovered\":" << t.recovered
     << ",\"user_action\":" << t.user_action
     << ",\"recovery_rate\":" << t.recovery_rate()
     << ",\"injections\":" << r.c.injections
     << ",\"mutations\":" << r.c.mutations
     << ",\"decode_rejects\":" << r.c.decode_rejects
     << ",\"malformed_rx\":" << r.c.malformed_rx
     << ",\"quarantine_drops\":" << r.c.quarantine_drops
     << ",\"suspect_dropped\":" << r.c.suspect_dropped
     << ",\"malformed_downlinks\":" << r.c.malformed_downlinks
     << ",\"applet_crashes\":" << r.c.applet_crashes << ",\"disruption_s\":{"
     << "\"p50\":" << t.disruption.median()
     << ",\"p90\":" << t.disruption.percentile(90)
     << ",\"p99\":" << t.disruption.percentile(99) << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const sim::FleetRunner fleet(benchutil::fleet_threads(argc, argv));
  const std::vector<CellSpec> cells = make_cells();
  benchutil::FleetStopwatch watch("adversarial", fleet.threads(),
                                  cells.size() * kRuns);

  metrics::print_banner(
      std::cout,
      "Adversarial survival: semantic mutation storm vs hardened decoders "
      "(SEED-R, seed " + std::to_string(kSeed) + ", " +
      std::to_string(kRuns) + " runs/cell)");

  std::ofstream json("BENCH_adversarial.json");
  json << "{\"bench\":\"adversarial\",\"seed\":" << kSeed
       << ",\"runs_per_cell\":" << kRuns << ",\"cells\":{";

  metrics::Table t({"Cell", "Recovery", "Median (s)", "99th (s)",
                    "Mutations", "Malformed", "Quarantined", "Crashes"});
  double clean_median = 0.0;
  bool first = true;
  for (const CellSpec& cell : cells) {
    // Seed each cell by its position so adding a cell never reshuffles
    // the failure mixes of the existing ones.
    const std::uint64_t cell_seed =
        kSeed + static_cast<std::uint64_t>(&cell - cells.data()) * 1000;
    const CellResult r = run_cell(fleet, cell, cell_seed);
    const metrics::Samples& d = r.tally.disruption;
    if (!cell.chaos) clean_median = d.median();
    if (!first) json << ",";
    first = false;
    append_cell_json(json, cell, r);
    t.row({cell.name, metrics::Table::pct(r.tally.recovery_rate(), 1),
           metrics::Table::num(d.median(), 1),
           metrics::Table::num(d.percentile(99), 1),
           std::to_string(r.c.mutations), std::to_string(r.c.malformed_rx),
           std::to_string(r.c.quarantine_drops),
           std::to_string(r.c.applet_crashes)});
    if (cell.chaos && clean_median > 0.0) {
      std::cout << "  [" << cell.name << "] median/clean = "
                << metrics::Table::num(d.median() / clean_median, 2)
                << "x (acceptance bound 3x)\n";
    }
  }
  json << "}}\n";
  t.print(std::cout);
  watch.append_json();
  std::cout << "\nwall: " << watch.elapsed_ms()
            << " ms; cells written to BENCH_adversarial.json\n";
  return 0;
}
