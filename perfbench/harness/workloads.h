// The benchmark's three workloads. Each entry point runs its workload
// for opt.seconds of host time at opt.seed and fills the report: the
// end-to-end metrics when opt.trace is false, the per-layer metrics of a
// traced run when it is true. Output checks that fail go to the report.
// At a workload's default seed (the seed its committed artifact was
// produced with) the run is also checked against that artifact.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

void run_city_1node(const Options& opt, Report& rep);
void run_metro_sharded(const Options& opt, Report& rep);
void run_paper_matrix(const Options& opt, Report& rep);

/// Compares `got` with the numbers of one section of the committed
/// BENCH_city.json (`section` empty = top level); `fields` maps the
/// file's field names to counter keys. Mismatches fail the run.
void check_bench_city(const Options& opt, Report& rep,
                      const std::string& section, const Counters& got,
                      const std::vector<std::pair<std::string, std::string>>&
                          fields);

}  // namespace perfbench
