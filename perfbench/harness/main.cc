// Repository benchmark program.
//
// Usage: perfbench --workload <city_1node|metro_sharded|paper_matrix>
//                         --seed <n> --seconds <s> --trace <0|1>
//                         [--root <checkout>]
//
// Prints a metric table and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones of
// a traced run. Exit code 0 when the run completed (check failures are
// reported through "correct"), 2 on bad arguments or an internal error.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "common/minijson.h"
#include "workloads.h"

namespace perfbench {

void check_bench_city(const Options& opt, Report& rep,
                      const std::string& section, const Counters& got,
                      const std::vector<std::pair<std::string, std::string>>&
                          fields) {
  const std::string path = opt.root + "/BENCH_city.json";
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    rep.fail_all("cannot read " + path);
    return;
  }
  try {
    const seed::minijson::Value doc = seed::minijson::parse(*text);
    const seed::minijson::Value* base = &doc;
    if (!section.empty()) base = &doc.at(section);
    for (const auto& [field, key] : fields) {
      const seed::minijson::Value* v = base;
      std::size_t start = 0;
      while (start <= field.size()) {
        const std::size_t dot = field.find('.', start);
        v = &v->at(field.substr(start, dot - start));
        if (dot == std::string::npos) break;
        start = dot + 1;
      }
      const auto want = static_cast<std::uint64_t>(v->as_int());
      if (got.get(key) != want) {
        rep.fail_all("BENCH_city.json " +
                     (section.empty() ? "" : section + ".") + field + " = " +
                     std::to_string(want) + ", run gives " +
                     std::to_string(got.get(key)));
      }
    }
  } catch (const std::exception& e) {
    rep.fail_all(path + ": " + e.what());
  }
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = parse_u64(val, "bad --seed");
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(val, nullptr);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = parse_u64(val, "bad --trace") != 0;
    } else if (std::strcmp(flag, "--root") == 0) {
      opt.root = val;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_seed) usage("--seed is required");
  opt.workers = default_workers();

  Report rep;
  try {
    if (opt.workload == "city_1node") {
      run_city_1node(opt, rep);
    } else if (opt.workload == "metro_sharded") {
      run_metro_sharded(opt, rep);
    } else if (opt.workload == "paper_matrix") {
      run_paper_matrix(opt, rep);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed
              << " failed: " << e.what() << "\n";
    return 2;
  }
  rep.print(opt);
  return 0;
}
