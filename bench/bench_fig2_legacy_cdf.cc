// Reproduces paper Fig. 2: CDF of disruption time under existing modem
// handling for control- and data-plane management failures (trace replay
// through the legacy modem FSM, as §7.1.1 does on the real testbed).
#include <iostream>

#include "metrics/stats.h"
#include "metrics/table.h"
#include "testbed/testbed.h"

int main() {
  using namespace seed;
  using namespace seed::testbed;
  constexpr std::uint64_t kSeed = 20220202;
  constexpr int kRunsPerPlane = 120;

  metrics::Samples cp, dp;
  sim::Rng mix_rng(kSeed);
  for (int i = 0; i < kRunsPerPlane * 2; ++i) {
    const SampledFailure f = sample_table1_failure(mix_rng);
    if (needs_user_action(f)) continue;  // no recovery path
    Testbed tb(kSeed + 1000 + static_cast<std::uint64_t>(i),
               device::Scheme::kLegacy);
    tb.bring_up();
    if (f.control_plane) {
      const Outcome out = tb.run_cp_failure(f.cp, sim::minutes(40));
      if (out.recovered) cp.add(out.disruption_s);
    } else {
      const Outcome out = tb.run_dp_failure(f.dp, sim::minutes(80));
      if (out.recovered) dp.add(out.disruption_s);
    }
  }

  metrics::print_banner(std::cout,
                        "Fig. 2: legacy modem handling disruption CDF "
                        "(seed " + std::to_string(kSeed) + ")");
  metrics::Table t({"Plane", "Samples", "p25", "Median", "p75", "p90",
                    "<2s", "<10s", "Paper anchors"});
  auto num = [](double v) { return metrics::Table::num(v, 1); };
  t.row({"Control", std::to_string(cp.count()), num(cp.percentile(25)),
         num(cp.median()), num(cp.percentile(75)), num(cp.percentile(90)),
         metrics::Table::pct(cp.cdf_at(2.0), 0),
         metrics::Table::pct(cp.cdf_at(10.0), 0),
         "median 12.4s; 19% <2s; 27% <10s"});
  t.row({"Data", std::to_string(dp.count()), num(dp.percentile(25)),
         num(dp.median()), num(dp.percentile(75)), num(dp.percentile(90)),
         metrics::Table::pct(dp.cdf_at(2.0), 0),
         metrics::Table::pct(dp.cdf_at(10.0), 0),
         "median ~476s (~8min); 9% <10s"});
  t.print(std::cout);

  for (const auto* s : {&cp, &dp}) {
    const auto series =
        metrics::make_cdf(*s, s == &cp ? "control-plane" : "data-plane", 12);
    std::cout << "CDF(" << series.name << "): ";
    for (std::size_t i = 0; i < series.x.size(); ++i) {
      std::cout << "(" << metrics::Table::num(series.x[i], 0) << "s,"
                << metrics::Table::num(series.y[i] * 100, 0) << "%) ";
    }
    std::cout << "\n";
  }
  return 0;
}
