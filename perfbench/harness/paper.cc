// paper_matrix: the Table 4 matrix, {Legacy, SEED-U, SEED-R} x {control
// plane, data plane, data delivery}. Every run is its own single-UE
// Testbed shard on FleetRunner, with the run seeds and the failure mix of
// bench_table4_disruption; the first 60 runs of each cell are exactly
// that bench's runs. A cell has more runs than Table 4's 60 because only
// ~2% of runs end unrecovered: at 60 runs per cell the unrecovered share
// swings by a third from one seed to the next. The single-UE core has no
// DiagnosisCache and the tracer stays off, so cache and obs changes
// should leave this workload unchanged.
#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "modem/modem.h"
#include "obs/fleet_obs.h"
#include "simapplet/applet.h"
#include "simcore/fleet_runner.h"
#include "testbed/testbed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace seed;
using testbed::CpFailure;
using testbed::DeliveryFailure;
using testbed::DpFailure;

constexpr std::uint64_t kDefaultSeed = 20220404;  // EXPERIMENTS.md Table 4
constexpr int kRunsPerCell = 2000;
constexpr int kTable4Runs = 60;
constexpr std::size_t kSetupSamples = 90;
constexpr int kCells = 9;
constexpr const char* kCellNames[kCells] = {
    "control/Legacy", "control/SEED-U",  "control/SEED-R",
    "data/Legacy",    "data/SEED-U",     "data/SEED-R",
    "delivery/Legacy", "delivery/SEED-U", "delivery/SEED-R"};
constexpr device::Scheme kSchemes[3] = {
    device::Scheme::kLegacy, device::Scheme::kSeedU, device::Scheme::kSeedR};

enum class Plane { kControl, kData, kDelivery };

struct Job {
  int cell = 0;
  int run = 0;  // index within the cell
  Plane plane = Plane::kControl;
  device::Scheme scheme = device::Scheme::kLegacy;
  testbed::SampledFailure f;
  std::uint64_t tb_seed = 0;
};

/// bench_table4_disruption's run list for base seed `seed`: the control
/// and data plane cells pre-sample the Table 1 mix (seed + 1, seed + 2)
/// and give the k-th matching sample testbed seed plane_seed * 131 + k;
/// the delivery cells use (seed + 3) * 977 + run.
std::vector<Job> make_jobs(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (int plane = 0; plane < 2; ++plane) {
    const std::uint64_t plane_seed =
        seed + 1 + static_cast<std::uint64_t>(plane);
    std::vector<Job> runs;
    sim::Rng mix_rng(plane_seed);
    while (runs.size() < static_cast<std::size_t>(kRunsPerCell)) {
      const testbed::SampledFailure f = testbed::sample_table1_failure(mix_rng);
      if (f.control_plane != (plane == 0)) continue;
      Job j;
      j.plane = plane == 0 ? Plane::kControl : Plane::kData;
      j.f = f;
      j.run = static_cast<int>(runs.size());
      j.tb_seed = plane_seed * 131 + (runs.size() + 1);
      runs.push_back(j);
    }
    for (int s = 0; s < 3; ++s) {
      for (Job j : runs) {
        j.cell = plane * 3 + s;
        j.scheme = kSchemes[s];
        jobs.push_back(j);
      }
    }
  }
  for (int s = 0; s < 3; ++s) {
    for (int r = 0; r < kRunsPerCell; ++r) {
      Job j;
      j.cell = 6 + s;
      j.run = r;
      j.plane = Plane::kDelivery;
      j.scheme = kSchemes[s];
      j.tb_seed = (seed + 3) * 977 + static_cast<std::uint64_t>(r);
      jobs.push_back(j);
    }
  }
  return jobs;
}

std::uint64_t dispatch_incl_ns() {
  for (const obs::ProfRow& r : obs::Profiler::instance().rows()) {
    if (r.name == "sim.dispatch") return r.stats.incl_ns;
  }
  return 0;
}

struct JobOut {
  testbed::Outcome outcome;
  bool user_action = false;
  double job_s = 0.0;
  std::size_t worker = 0;
  std::uint64_t setup_events = 0;
  std::uint64_t events = 0;
  // Counters keyed as add_city_counters keys them; folded into a
  // Counters after the clock stops.
  std::array<std::pair<const char*, std::uint64_t>, 12> counters{};
  // traced jobs only
  SpanLog spans;
  std::uint64_t queued = 0;
  std::uint64_t failure_loop_ns = 0;  // event-loop time inside run_*_failure
  std::vector<obs::ProfRow> profile;
};

/// Table 4 mixture: operator-known custom failures carry a suggested
/// action (as bench_table4_disruption sets them up).
void configure(testbed::Testbed& tb, const Job& j) {
  if (j.plane == Plane::kControl && j.f.cp == CpFailure::kCustomUnknown) {
    tb.core().faults().custom_action_known =
        proto::ResetAction::kB2CPlaneReattach;
  }
  if (j.plane == Plane::kData && j.f.dp == DpFailure::kCustomUnknown) {
    tb.core().faults().custom_action_known =
        proto::ResetAction::kB3DPlaneReset;
  }
}

JobOut run_job(const Job& j, const sim::ShardInfo& info, bool traced) {
  JobOut o;
  o.worker = info.worker;
  SpanLog* log = traced ? &o.spans : nullptr;
  if (traced) obs::begin_shard_obs(false, false, /*profile=*/true);
  const std::uint64_t t0 = now_ns();
  std::optional<testbed::Testbed> tb;
  {
    const ScopedSpan span(log, "testbed.construct");
    tb.emplace(j.tb_seed, j.scheme);
  }
  configure(*tb, j);
  {
    const ScopedSpan span(log, "testbed.bring_up");
    tb->bring_up();
  }
  sim::Simulator& sim = tb->simulator();
  o.setup_events = sim.events_processed();
  o.queued = sim.queued();
  const std::uint64_t loop0 = traced ? dispatch_incl_ns() : 0;
  {
    const ScopedSpan span(log, "testbed.run_failure");
    switch (j.plane) {
      case Plane::kControl:
        o.outcome = tb->run_cp_failure(j.f.cp, sim::minutes(40));
        break;
      case Plane::kData:
        o.outcome = tb->run_dp_failure(j.f.dp, sim::minutes(80));
        break;
      case Plane::kDelivery:
        // The reconnection-recoverable delivery class of §7.1.1.
        o.outcome = tb->run_delivery_failure(DeliveryFailure::kStaleSession,
                                             sim::minutes(40));
        break;
    }
  }
  o.user_action =
      !o.outcome.recovered &&
      (o.outcome.user_action_required ||
       (j.plane == Plane::kControl && j.f.cp == CpFailure::kUnauthorized) ||
       (j.plane == Plane::kData && j.f.dp == DpFailure::kExpiredPlan));
  o.events = sim.events_processed();
  const corenet::CoreStats& cs = tb->core().stats();
  const modem::ModemStats& ms = tb->dev().modem().stats();
  const applet::AppletStats& as = tb->dev().applet().stats();
  o.counters = {{{"sim_events", o.events},
                 {"nas_rx", cs.nas_rx},
                 {"nas_tx", cs.nas_tx},
                 {"rejects", cs.rejects_sent},
                 {"diag_downlinks", cs.diag_downlinks},
                 {"diag_reports_rx", cs.diag_reports_rx},
                 {"auth_vectors", cs.auth_vectors},
                 {"modem_registrations", ms.registrations_attempted},
                 {"modem_pdu_attempts", ms.pdu_attempted},
                 {"applet_plans", as.plans_executed},
                 {"applet_actions", as.actions_run},
                 {"applet_reports_up", as.reports_sent_uplink}}};
  if (traced) {
    o.failure_loop_ns = dispatch_incl_ns() - loop0;
    o.profile = obs::end_shard_obs().profile;
  }
  o.job_s = seconds_since(t0);
  return o;
}

struct MatrixPass {
  double wall_s = 0.0;  // FleetRunner::map plus the fold
  double merge_s = 0.0;
  std::vector<JobOut> jobs;
  Counters counters;
  DisruptionGroups disruption_s{kCells};  // recovered runs, per cell
  std::vector<double> table4_median;      // first kTable4Runs of a cell
  std::uint64_t unrecovered = 0;
};

MatrixPass run_matrix(const std::vector<Job>& jobs, std::size_t workers,
                      bool traced) {
  MatrixPass p;
  const std::uint64_t t0 = now_ns();
  const sim::FleetRunner fleet(workers);
  p.jobs = fleet.map<JobOut>(jobs.size(), [&](const sim::ShardInfo& info) {
    return run_job(jobs[info.index], info, traced);
  });
  // The fold bench_table4_disruption does: recovered runs' disruption
  // per cell.
  const std::uint64_t t_merge = now_ns();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const testbed::Outcome& out = p.jobs[i].outcome;
    if (out.recovered) {
      p.disruption_s[static_cast<std::size_t>(jobs[i].cell)].push_back(
          out.disruption_s);
    }
  }
  p.merge_s = seconds_since(t_merge);
  p.wall_s = seconds_since(t0);

  std::vector<std::vector<double>> table4(kCells);
  std::uint64_t user_action = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOut& o = p.jobs[i];
    if (!o.outcome.recovered) {
      ++p.unrecovered;
      if (o.user_action) ++user_action;
    } else if (jobs[i].run < kTable4Runs) {
      table4[static_cast<std::size_t>(jobs[i].cell)].push_back(
          o.outcome.disruption_s);
    }
    for (const auto& [k, v] : o.counters) p.counters.add(k, v);
  }
  for (const std::vector<double>& c : table4) {
    p.table4_median.push_back(median(c));
  }
  p.counters.set("runs", jobs.size());
  p.counters.set("recovered", group_samples(p.disruption_s));
  p.counters.set("user_action", user_action);
  p.counters.set("disruption_hash", hash_groups(p.disruption_s));
  return p;
}

/// Table 4 "Measured" medians from EXPERIMENTS.md, in kCellNames order,
/// with the rounding they are printed at (half a unit of the last digit).
struct DocMedian {
  double value = 0.0;
  double tolerance = 0.0;
};

std::optional<std::vector<DocMedian>> table4_medians(const std::string& md,
                                                     std::string& why) {
  std::istringstream in(md);
  std::string line;
  bool in_table = false;
  std::vector<DocMedian> out;
  while (std::getline(in, line)) {
    if (!in_table) {
      in_table = line.rfind("## Table 4", 0) == 0;
      continue;
    }
    if (line.empty() || line[0] != '|') {
      if (!out.empty()) break;
      continue;
    }
    std::vector<std::string> cols;
    std::stringstream row(line);
    std::string col;
    while (std::getline(row, col, '|')) cols.push_back(col);
    if (cols.size() < 4) continue;
    const std::string& measured = cols[3];
    const std::size_t first = measured.find_first_not_of(' ');
    if (first == std::string::npos ||
        !std::isdigit(static_cast<unsigned char>(measured[first]))) {
      continue;  // header or separator row
    }
    const std::size_t end = measured.find_first_not_of("0123456789.", first);
    const std::string num = measured.substr(first, end - first);
    const std::size_t dot = num.find('.');
    const int decimals =
        dot == std::string::npos ? 0 : static_cast<int>(num.size() - dot - 1);
    out.push_back({std::strtod(num.c_str(), nullptr),
                   0.5 * std::pow(10.0, -decimals) + 1e-9});
  }
  if (out.size() != kCells) {
    why = "found " + std::to_string(out.size()) + " Table 4 rows, want 9";
    return std::nullopt;
  }
  return out;
}

void check_table4(const Options& opt, Report& rep, const MatrixPass& p) {
  const std::string path = opt.root + "/EXPERIMENTS.md";
  const std::optional<std::string> md = read_file(path);
  if (!md) {
    rep.fail_all("cannot read " + path);
    return;
  }
  std::string why;
  const auto want = table4_medians(*md, why);
  if (!want) {
    rep.fail_all(path + ": " + why);
    return;
  }
  for (int c = 0; c < kCells; ++c) {
    const DocMedian& w = (*want)[static_cast<std::size_t>(c)];
    const double got = p.table4_median[static_cast<std::size_t>(c)];
    if (std::fabs(got - w.value) > w.tolerance) {
      std::ostringstream msg;
      msg << "EXPERIMENTS.md Table 4 " << kCellNames[c] << " median "
          << w.value << " s, run gives " << got << " s";
      rep.fail_all(msg.str());
    }
  }
}

/// Median host time of one set-up (Testbed constructor, the Table 4
/// tweaks, bring_up) on the calling thread, over kSetupSamples runs spread
/// evenly over the matrix. Inside the pool a set-up of some 20 us shares
/// the host with three other workers, and its time follows theirs.
double probe_setup_s(const std::vector<Job>& jobs) {
  std::vector<double> s;
  const std::size_t stride = jobs.size() / kSetupSamples;
  for (std::size_t i = 0; i < jobs.size(); i += stride) {
    const Job& j = jobs[i];
    const std::uint64_t t0 = now_ns();
    testbed::Testbed tb(j.tb_seed, j.scheme);
    configure(tb, j);
    tb.bring_up();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Heap growth per UE over the set-up of one cell's testbeds, all
/// alive at once on the calling thread.
double probe_bytes_per_ue(const std::vector<Job>& jobs) {
  const std::uint64_t heap0 = heap_bytes();
  std::vector<std::unique_ptr<testbed::Testbed>> alive;
  for (int i = 0; i < kTable4Runs; ++i) {
    const Job& j = jobs[static_cast<std::size_t>(i)];
    alive.push_back(std::make_unique<testbed::Testbed>(j.tb_seed, j.scheme));
    alive.back()->bring_up();
  }
  const std::uint64_t heap1 = heap_bytes();
  return static_cast<double>(heap1 > heap0 ? heap1 - heap0 : 0) /
         kTable4Runs;
}

void parity_checks(const Options& opt, Report& rep, const MatrixPass& ref,
                   const MatrixPass& one) {
  if (const std::string d = ref.counters.diff(one.counters); !d.empty()) {
    rep.fail_all("paper_matrix: 1 worker differs from " +
                 std::to_string(opt.workers) + ": " + d);
  }
  if (opt.seed == kDefaultSeed) check_table4(opt, rep, ref);
}

void end_to_end(const Options& opt, Report& rep) {
  const std::vector<Job> jobs = make_jobs(opt.seed);
  const double bytes_per_ue = probe_bytes_per_ue(jobs);
  const MatrixPass one = run_matrix(jobs, 1, false);
  std::optional<MatrixPass> ref;
  std::vector<double> setup_s, run_s, host_setup_s, host_run_s;
  repeat_for(opt.seconds, 3, [&](std::size_t) {
    const double speed = host_speed();
    const double one_setup_s = probe_setup_s(jobs);
    MatrixPass p = run_matrix(jobs, opt.workers, false);
    rep.attempted += jobs.size();
    if (ref) {
      if (const std::string d = ref->counters.diff(p.counters); !d.empty()) {
        rep.fail("paper_matrix: repeated pass differs: " + d);
        rep.failed += jobs.size();
        return;
      }
    }
    setup_s.push_back(one_setup_s * speed);
    host_setup_s.push_back(one_setup_s);
    run_s.push_back(p.wall_s * speed);
    host_run_s.push_back(p.wall_s);
    if (!ref) {
      p.jobs.clear();
      ref = std::move(p);
      parity_checks(opt, rep, *ref, one);
    }
  });

  rep.e2e("setup_s", median(setup_s), "s",
          "median over passes of the median of " +
              std::to_string(kSetupSamples) +
              " Testbed set-ups on one thread" +
              host_seconds_note(host_setup_s));
  rep.e2e("run_s", median(run_s), "s",
          std::to_string(jobs.size()) + " runs on " +
              std::to_string(opt.workers) + " workers, set-ups included" +
              host_seconds_note(host_run_s));
  rep.e2e("events_per_s",
          static_cast<double>(ref->counters.get("sim_events")) / median(run_s),
          "events/s",
          std::to_string(ref->counters.get("sim_events")) +
              " events per matrix");
  rep.e2e("rss_peak_mb", static_cast<double>(hwm_kib()) / 1024.0, "MiB");
  rep.e2e("bytes_per_ue", bytes_per_ue, "B",
          "heap growth, " + std::to_string(kTable4Runs) +
              " single-UE testbeds alive");
  report_recovery(rep, ref->unrecovered, jobs.size(), ref->disruption_s,
                  "9 Table 4 cell");
}

void traced(const Options& opt, Report& rep) {
  const std::vector<Job> jobs = make_jobs(opt.seed);
  std::optional<MatrixPass> ref;
  std::vector<double> untraced_s, traced_s;
  LayerSamples layers;
  SpanLog last_spans;
  repeat_for(opt.seconds, 4, [&](std::size_t i) {
    const bool tracing = i % 2 == 1;
    MatrixPass p = run_matrix(jobs, opt.workers, tracing);
    rep.attempted += jobs.size();
    if (ref) {
      if (const std::string d = ref->counters.diff(p.counters); !d.empty()) {
        rep.fail(std::string("paper_matrix: ") +
                 (tracing ? "traced" : "repeated") + " pass differs: " + d);
        rep.failed += jobs.size();
        return;
      }
    }
    (tracing ? traced_s : untraced_s).push_back(p.wall_s);
    if (!tracing) {
      if (!ref) ref = std::move(p);
      return;
    }

    SpanLog spans;
    ZoneTable zones;
    std::vector<double> queued, job_s;
    std::vector<double> busy(opt.workers, 0.0);
    std::uint64_t run_events = 0, setup_events = 0, loop_ns = 0;
    for (const JobOut& o : p.jobs) {
      spans.absorb(o.spans);
      zones.add(o.profile);
      queued.push_back(static_cast<double>(o.queued));
      job_s.push_back(o.job_s);
      if (o.worker < busy.size()) busy[o.worker] += o.job_s;
      run_events += o.events - o.setup_events;
      setup_events += o.setup_events;
      loop_ns += o.failure_loop_ns;
    }
    const auto zm = zone_metrics(zones);
    const auto secs = [&](const char* span) {
      return static_cast<double>(spans.total(span).total_ns) / 1e9;
    };
    const double run_s = secs("testbed.run_failure");
    double busy_total = 0.0;
    for (const double b : busy) busy_total += b;

    layers.add("simcore.events", static_cast<double>(run_events), "count");
    layers.add("simcore.run_s", run_s, "s");
    layers.add("simcore.ns_per_event",
               run_s * 1e9 / static_cast<double>(run_events), "ns");
    layers.add("simcore.queued_p50", percentile(queued, 50), "count");
    layers.add("simcore.queued_p99", percentile(queued, 99), "count");
    layers.add("simcore.dispatch_us", zm.at("simcore.dispatch_us"), "us");
    layers.add("simcore.unattributed_share", unattributed_share(zones, 0),
               "ratio");
    layers.add("fleet.shards", static_cast<double>(jobs.size()), "count");
    layers.add("fleet.shard_s_p50", median(job_s), "s");
    layers.add("fleet.shard_s_max",
               *std::max_element(job_s.begin(), job_s.end()), "s");
    layers.add("fleet.imbalance",
               *std::max_element(busy.begin(), busy.end()) /
                   (busy_total / static_cast<double>(busy.size())),
               "ratio");
    layers.add("fleet.merge_s", p.merge_s, "s");
    layers.add("testbed.construct_s", secs("testbed.construct"), "s");
    layers.add("testbed.bring_up_s", secs("testbed.bring_up"), "s");
    layers.add("testbed.bring_up_events", static_cast<double>(setup_events),
               "count");
    layers.add("testbed.inject_us",
               (run_s * 1e9 - static_cast<double>(loop_ns)) / 1e3, "us");
    layers.add("testbed.injections", static_cast<double>(jobs.size()),
               "count");
    add_sim_counter_layers(layers, p.counters, zm);
    for (const char* m : {"obs.events_observed", "obs.events_retained"}) {
      layers.add(m, 0, "count");
    }
    layers.add("obs.trace_bytes", 0, "B");
    layers.add("obs.trace_bytes_per_ue", 0, "B");
    last_spans = std::move(spans);
  });

  const MatrixPass serial = run_matrix(jobs, 1, /*traced=*/true);
  parity_checks(opt, rep, *ref, serial);
  last_spans.print(std::cout, "spans of the last traced pass");
  layers.emit(rep);
  rep.layer("fleet.speedup", serial.wall_s / median(traced_s), "ratio",
            "1 worker vs " + std::to_string(opt.workers) + ", traced");
  rep.layer("bench.trace_overhead",
            median(traced_s) / median(untraced_s) - 1.0, "ratio",
            "traced matrix / untraced matrix - 1");
  for (const char* m : {"obs.observer_us", "obs.observer_share",
                        "obs.export_us", "obs.decode_us"}) {
    rep.layer_na(m, "", "tracer off: Table 4 runs have no observers");
  }
  rep.layer_na("obs.on_off_ratio", "ratio",
               "obs-off twin is run on city_1node only");
}

}  // namespace

void run_paper_matrix(const Options& opt, Report& rep) {
  if (opt.trace) {
    traced(opt, rep);
  } else {
    end_to_end(opt, rep);
  }
}

}  // namespace perfbench
