// Scenario: the offline pipeline of §3.1 — generate a MobileInsight-style
// signaling corpus, write it to disk, read it back, and re-derive the
// failure statistics by parsing every NAS outcome message. This is the
// data the paper's Table 1 and Fig. 2 analysis start from.
//
//   ./build/examples/trace_analysis [procedures]
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "metrics/table.h"
#include "nas/causes.h"
#include "simcore/rng.h"
#include "trace/dataset.h"

int main(int argc, char** argv) {
  using namespace seed;

  const std::size_t procedures =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 24000;

  sim::Rng rng(0x5eed);
  const trace::Dataset ds = trace::generate_dataset(rng, procedures);

  // Persist and reload, as the real collection pipeline would.
  const std::string path = "/tmp/seed_trace.bin";
  {
    const Bytes blob = ds.serialize();
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    std::cout << "wrote " << blob.size() << " bytes (" << ds.records.size()
              << " procedure records) to " << path << "\n";
  }
  Bytes blob;
  {
    std::ifstream f(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
  }
  const auto reloaded = trace::Dataset::deserialize(blob);
  if (!reloaded) {
    std::cerr << "failed to reload dataset\n";
    return 1;
  }

  const trace::AnalysisResult res = trace::analyze(*reloaded);
  std::cout << "parsed " << res.procedures << " procedures, found "
            << res.failures << " failures ("
            << metrics::Table::pct(res.failure_ratio())
            << " failure ratio; paper: >10%)\n\n";

  for (nas::Plane plane : {nas::Plane::kControl, nas::Plane::kData}) {
    std::cout << (plane == nas::Plane::kControl ? "Control" : "Data")
              << "-plane top causes:\n";
    metrics::Table t({"#", "Cause", "Share of all failures"});
    for (const auto& c : res.top_causes(plane, 5)) {
      t.row({std::to_string(c.cause),
             std::string(nas::cause_name(c.plane, c.cause)),
             metrics::Table::pct(c.fraction_of_failures)});
    }
    t.print(std::cout);
  }

  std::cout << "Config-related causes (paper Appendix A) in this corpus: ";
  std::size_t config_related = 0;
  for (const auto& c : res.causes) {
    if (nas::config_kind_for(c.plane, c.cause) != nas::ConfigKind::kNone) {
      config_related += c.count;
    }
  }
  std::cout << metrics::Table::pct(
                   static_cast<double>(config_related) / res.failures)
            << " of failures could ship a fresh configuration with the "
               "cause code.\n";
  return 0;
}
