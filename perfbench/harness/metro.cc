// metro_sharded: the 10k-UE / 8-shard testbed::CityWorkload under
// tail-based trace retention, run through run_city_workload on the
// fleet pool. The traced run drives the same shards itself (FleetRunner
// ::map, begin_shard_obs/end_shard_obs, Tracer::absorb) so that it can
// time each shard, and proves that its merged output is the one
// run_city_workload produces.
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "obs/fleet_obs.h"
#include "obs/health.h"
#include "obs/trace_binary.h"
#include "seed/verdict.h"
#include "simcore/fleet_runner.h"
#include "storm.h"
#include "testbed/city_workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace seed;

/// BENCH_city.json's sampled10k section was made at CityWorkload's
/// default base seed.
constexpr std::uint64_t kDefaultSeed = 42;

testbed::CityWorkload workload_of(std::uint64_t seed) {
  testbed::CityWorkload w;
  w.base_seed = seed;
  return w;
}

std::size_t total_ues(const testbed::CityWorkload& w) {
  return w.shards * w.ues_per_shard;
}

/// The deterministic counters run_city_workload reports, plus the
/// fingerprint of its SEEDTRC capture.
Counters run_counters(const testbed::CityWorkload& w,
                      const testbed::CityRun& r, std::uint64_t trace_hash) {
  Counters c;
  c.set("ues", total_ues(w));
  c.set("shards", w.shards);
  c.set("storm_min", static_cast<std::uint64_t>(w.storm_min));
  c.set("ring_depth", w.ring_depth);
  c.set("injections", r.injections);
  c.set("sim_events", r.sim_events);
  c.set("healthy", r.healthy);
  c.set("diag_reports_rx", r.diag_reports_rx);
  c.set("terminal_failures", r.terminal_failures);
  c.set("alert_transitions", r.alert_transitions);
  c.set("events_retained", r.retention.events_retained);
  c.set("events_aged_out", r.retention.events_aged_out);
  c.set("ues_retained", r.retention.ues_retained);
  c.set("trace_bytes_total", r.retention.bytes_retained);
  c.set("trace_hash", trace_hash);
  return c;
}

std::uint64_t capture_hash(const std::string& bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

const std::vector<std::pair<std::string, std::string>> kSampled10kFields = {
    {"ues", "ues"},
    {"shards", "shards"},
    {"storm_min", "storm_min"},
    {"ring_depth", "ring_depth"},
    {"injections", "injections"},
    {"sim_events", "sim_events"},
    {"healthy", "healthy"},
    {"diag_reports_rx", "diag_reports_rx"},
    {"terminal_failures", "terminal_failures"},
    {"alert_transitions", "alert_transitions"},
    {"events_retained", "events_retained"},
    {"events_aged_out", "events_aged_out"},
    {"ues_retained", "ues_retained"},
    {"trace_bytes_total", "trace_bytes_total"},
};

/// Arms the calling thread's obs world the way a CityWorkload shard
/// does: traces and metrics on, tail-based retention, a health engine
/// without SLOG echo. Returns the health config to build the engine with.
obs::HealthConfig arm_shard_obs(const testbed::CityWorkload& w,
                                bool profile) {
  obs::begin_shard_obs(/*traces=*/true, /*metrics=*/true, profile);
  obs::RetentionPolicy retain;
  retain.ring_depth = w.ring_depth;
  retain.trigger = core::verdict_mismatch;
  obs::Tracer::instance().set_retention(retain);
  obs::HealthConfig hc = obs::HealthConfig::defaults();
  hc.emit_slog = false;
  return hc;
}

testbed::MultiOptions shard_options(const testbed::CityWorkload& w) {
  testbed::MultiOptions o;
  o.ue_count = w.ues_per_shard;
  o.scheme = testbed::Scheme::kSeedU;
  o.diag_cache = true;
  o.outdated_dnn_population = true;
  return o;
}

struct SetupProbe {
  double setup_s = 0.0;
  std::uint64_t heap_growth = 0;
};

/// Builds shard 0 and brings it to data-healthy on the calling thread,
/// exactly as the shard body does before its storm. run_city_workload
/// sets its shards up inside the pool, out of reach of a clock, so this
/// is the set-up the benchmark times.
SetupProbe probe_setup(const testbed::CityWorkload& w) {
  SetupProbe out;
  obs::HealthEngine health(arm_shard_obs(w, false));
  obs::Tracer::instance().add_observer(&health);
  {
    const std::uint64_t heap0 = heap_bytes();
    const std::uint64_t t0 = now_ns();
    testbed::MultiTestbed city(sim::shard_seed(w.base_seed, 0),
                               shard_options(w));
    city.bring_up_all();
    out.setup_s = seconds_since(t0);
    const std::uint64_t heap1 = heap_bytes();
    out.heap_growth = heap1 > heap0 ? heap1 - heap0 : 0;
    obs::Tracer::instance().remove_observer(&health);
    obs::end_shard_obs();
  }
  return out;
}

struct Shard {
  obs::ShardObs obs;
  Counters counters;
  DisruptionGroups disruption_s;
  std::uint64_t unrecovered = 0;
  std::uint64_t observed_injections = 0;
  std::uint64_t injections = 0;
  std::uint64_t setup_events = 0;
  std::uint64_t storm_events = 0;
  double shard_s = 0.0;
  std::size_t worker = 0;
  // traced shards only
  SpanLog spans;
  std::vector<double> queued;
  std::uint64_t events_observed = 0;
};

/// The CityWorkload shard body, driven from here: the same calls in the
/// same order, plus a RecoveryObserver and (traced) spans, the profiler
/// and a ForwardingObserver around the health engine.
Shard run_shard(const testbed::CityWorkload& w, const sim::ShardInfo& info,
                bool traced) {
  Shard out;
  out.worker = info.worker;
  const std::uint64_t t0 = now_ns();
  SpanLog* log = traced ? &out.spans : nullptr;
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::HealthEngine health(arm_shard_obs(w, traced));
  RecoveryObserver recovery;
  ForwardingObserver forward({&health}, log);
  const std::vector<obs::EventObserver*> attached =
      traced ? std::vector<obs::EventObserver*>{&forward, &recovery}
             : std::vector<obs::EventObserver*>{&health, &recovery};
  for (obs::EventObserver* o : attached) tracer.add_observer(o);

  std::optional<testbed::MultiTestbed> city;
  {
    const ScopedSpan span(log, "testbed.construct");
    city.emplace(info.seed, shard_options(w));
  }
  {
    const ScopedSpan span(log, "testbed.bring_up");
    city->bring_up_all();
  }
  sim::Simulator& sim = city->simulator();
  out.setup_events = sim.events_processed();
  out.injections =
      run_storm(*city, w.storm_min, log, traced ? &out.queued : nullptr);
  out.storm_events = sim.events_processed() - out.setup_events;

  health.flush(sim.now().time_since_epoch().count());
  for (obs::EventObserver* o : attached) tracer.remove_observer(o);
  out.counters.set("injections", out.injections);
  add_city_counters(*city, out.counters);
  out.disruption_s = recovery.disruption_s();
  out.unrecovered = recovery.unrecovered();
  out.observed_injections = recovery.injected();
  out.events_observed = forward.events();
  out.obs = obs::end_shard_obs();
  out.shard_s = seconds_since(t0);
  return out;
}

struct FleetPass {
  double wall_s = 0.0;  // FleetRunner::map plus merge
  double merge_s = 0.0;
  std::vector<Shard> shards;
  Counters run;  // run_counters() of the merged result
  DisruptionGroups disruption_s;
  std::uint64_t unrecovered = 0;
  std::uint64_t observed_injections = 0;
  bool decode_ok = true;
  /// Every shard folded in; counters also hold the recovery accounting.
  StormTrace t;
};

/// Runs every shard through FleetRunner::map and merges them the way
/// run_city_workload does (shard order, tracer renumbered from 1).
FleetPass run_fleet(const testbed::CityWorkload& w, std::size_t workers,
                    bool traced) {
  FleetPass p;
  SpanLog* log = traced ? &p.t.spans : nullptr;
  const std::uint64_t t0 = now_ns();
  const sim::FleetRunner runner(workers, w.base_seed);
  {
    const ScopedSpan span(log, "fleet.map");
    p.shards = runner.map<Shard>(w.shards, [&](const sim::ShardInfo& info) {
      return run_shard(w, info, traced);
    });
  }
  const std::uint64_t t_merge = now_ns();
  obs::Tracer& tracer = obs::Tracer::instance();
  testbed::CityRun merged;
  {
    const ScopedSpan span(log, "fleet.merge");
    tracer.enable(false);
    tracer.clear();
    tracer.clear_retention();
    tracer.reset_span_counter();
    for (Shard& s : p.shards) {
      merged.retention += s.obs.retention;
      merged.injections += s.injections;
      merged.sim_events += s.counters.get("sim_events");
      merged.healthy += s.counters.get("healthy");
      merged.diag_reports_rx += s.counters.get("diag_reports_rx");
      const ScopedSpan absorb(log, "obs.absorb");
      tracer.absorb(std::move(s.obs.trace_events));
    }
  }
  p.merge_s = seconds_since(t_merge);
  p.wall_s = seconds_since(t0);

  // Off the clock: export and decode the merged capture, and fold the
  // shards' accounting.
  std::ostringstream capture;
  {
    const ScopedSpan span(log, "obs.export");
    tracer.export_binary(capture);
  }
  const std::string bytes = std::move(capture).str();
  merged.events = tracer.events();
  tracer.clear();
  for (const obs::Event& e : merged.events) {
    if (e.kind == obs::EventKind::kTerminalFailure) ++merged.terminal_failures;
    if (e.kind == obs::EventKind::kSloAlert) ++merged.alert_transitions;
  }
  if (traced) {
    std::vector<obs::Event> decoded;
    {
      const ScopedSpan span(log, "obs.decode");
      decoded = obs::TraceReader::decode(bytes);
    }
    p.decode_ok = decoded == merged.events;
  }
  p.run = run_counters(w, merged, capture_hash(bytes));

  StormTrace& t = p.t;
  t.ues = total_ues(w);
  t.trace_bytes = bytes.size();
  t.events_retained = merged.retention.events_retained;
  for (const Shard& s : p.shards) {
    for (const auto& [k, v] : s.counters.values()) t.counters.add(k, v);
    append_groups(p.disruption_s, s.disruption_s);
    p.unrecovered += s.unrecovered;
    p.observed_injections += s.observed_injections;
    t.spans.absorb(s.spans);
    t.zones.add(s.obs.profile);
    t.queued.insert(t.queued.end(), s.queued.begin(), s.queued.end());
    t.setup_events += s.setup_events;
    t.storm_events += s.storm_events;
    t.injections += s.injections;
    t.events_observed += s.events_observed;
    t.busy_s += s.shard_s;
  }
  t.counters.set("observed_injections", p.observed_injections);
  t.counters.set("unrecovered", p.unrecovered);
  t.counters.set("disruption_hash", hash_groups(p.disruption_s));
  return p;
}

struct WorkloadRun {
  double wall_s = 0.0;
  Counters counters;
};

WorkloadRun run_workload(const testbed::CityWorkload& w,
                         std::size_t workers) {
  WorkloadRun out;
  const std::uint64_t t0 = now_ns();
  const testbed::CityRun r = testbed::run_city_workload(w, workers);
  out.wall_s = seconds_since(t0);
  out.counters = run_counters(w, r, capture_hash(obs::encode_binary(r.events)));
  return out;
}

/// Checks shared by both runs: the self-driven fleet reproduces
/// run_city_workload, 1 and W workers agree, the observer saw every
/// injection, and the default seed reproduces BENCH_city.json.
void reference_checks(const Options& opt, Report& rep, const FleetPass& self,
                      const WorkloadRun& ref, const WorkloadRun& one) {
  if (const std::string d = ref.counters.diff(self.run); !d.empty()) {
    rep.fail_all("metro_sharded: self-driven shards differ from "
                 "run_city_workload: " + d);
  }
  if (const std::string d = ref.counters.diff(one.counters); !d.empty()) {
    rep.fail_all("metro_sharded: 1 worker differs from " +
                 std::to_string(opt.workers) + ": " + d);
  }
  if (self.observed_injections != self.run.get("injections")) {
    rep.fail_all("metro_sharded: recovery observers saw " +
                 std::to_string(self.observed_injections) + " injections of " +
                 std::to_string(self.run.get("injections")));
  }
  if (opt.seed == kDefaultSeed) {
    check_bench_city(opt, rep, "sampled10k", ref.counters, kSampled10kFields);
  }
}

void end_to_end(const Options& opt, Report& rep) {
  const testbed::CityWorkload w = workload_of(opt.seed);
  // Before anything else: later set-ups reuse pools and caches the first
  // one left allocated, so only the first shows a set-up's full growth.
  const SetupProbe first = probe_setup(w);
  const FleetPass self = run_fleet(w, opt.workers, /*traced=*/false);
  const WorkloadRun one = run_workload(w, 1);
  std::optional<WorkloadRun> ref;

  std::vector<double> setup_s, run_s, host_setup_s, host_run_s;
  repeat_for(opt.seconds, 3, [&](std::size_t) {
    const double speed = host_speed();
    const double one_setup_s = probe_setup(w).setup_s;
    WorkloadRun r = run_workload(w, opt.workers);
    const double wall_s = r.wall_s;
    rep.attempted += r.counters.get("injections");
    if (!ref) {
      ref = std::move(r);
      reference_checks(opt, rep, self, *ref, one);
    } else if (const std::string d = ref->counters.diff(r.counters);
               !d.empty()) {
      rep.fail("metro_sharded: repeated run differs: " + d);
      rep.failed += r.counters.get("injections");
      return;
    }
    setup_s.push_back(one_setup_s * speed);
    run_s.push_back(wall_s * speed);
    host_setup_s.push_back(one_setup_s);
    host_run_s.push_back(wall_s);
  });

  rep.e2e("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) +
              " set-ups of one " + std::to_string(w.ues_per_shard) +
              "-UE shard" + host_seconds_note(host_setup_s));
  rep.e2e("run_s", median(run_s), "s",
          "run_city_workload on " + std::to_string(opt.workers) +
              " workers, shard set-up and merge included" +
              host_seconds_note(host_run_s));
  rep.e2e("events_per_s",
          static_cast<double>(ref->counters.get("sim_events")) / median(run_s),
          "events/s",
          std::to_string(ref->counters.get("sim_events")) +
              " fleet events per run");
  rep.e2e("rss_peak_mb", static_cast<double>(hwm_kib()) / 1024.0, "MiB");
  rep.e2e("bytes_per_ue",
          static_cast<double>(first.heap_growth) /
              static_cast<double>(w.ues_per_shard),
          "B", "heap growth over the first shard set-up");
  report_recovery(rep, self.unrecovered, self.observed_injections,
                  self.disruption_s, "control/data plane");
}

void traced(const Options& opt, Report& rep) {
  const testbed::CityWorkload w = workload_of(opt.seed);
  const WorkloadRun one = run_workload(w, 1);
  std::optional<WorkloadRun> ref;
  SpanLog last_spans;
  std::optional<Counters> traced_ref;  // first traced pass's shard sums
  std::vector<double> untraced_s, traced_s;
  LayerSamples layers;
  repeat_for(opt.seconds, 4, [&](std::size_t i) {
    if (i % 2 == 0) {
      WorkloadRun r = run_workload(w, opt.workers);
      const double wall_s = r.wall_s;
      rep.attempted += r.counters.get("injections");
      if (!ref) {
        ref = std::move(r);
      } else if (const std::string d = ref->counters.diff(r.counters);
                 !d.empty()) {
        rep.fail("metro_sharded: repeated run differs: " + d);
        rep.failed += r.counters.get("injections");
        return;
      }
      untraced_s.push_back(wall_s);
      return;
    }
    FleetPass p = run_fleet(w, opt.workers, /*traced=*/true);
    rep.attempted += p.run.get("injections");
    std::string d = ref->counters.diff(p.run);
    if (traced_ref) d += traced_ref->diff(p.t.counters);
    if (!d.empty() || !p.decode_ok) {
      rep.fail("metro_sharded: traced shards differ: " +
               (d.empty() ? std::string("SEEDTRC round trip") : d));
      rep.failed += p.run.get("injections");
      return;
    }
    if (!traced_ref) {
      reference_checks(opt, rep, p, *ref, one);
      traced_ref = p.t.counters;
    }
    traced_s.push_back(p.wall_s);

    std::vector<double> shard_s;
    std::vector<double> busy(opt.workers, 0.0);
    for (const Shard& s : p.shards) {
      shard_s.push_back(s.shard_s);
      if (s.worker < busy.size()) busy[s.worker] += s.shard_s;
    }
    add_storm_layers(layers, p.t);
    layers.add("fleet.shards", static_cast<double>(p.shards.size()), "count");
    layers.add("fleet.shard_s_p50", median(shard_s), "s");
    layers.add("fleet.shard_s_max",
               *std::max_element(shard_s.begin(), shard_s.end()), "s");
    layers.add("fleet.imbalance",
               *std::max_element(busy.begin(), busy.end()) /
                   (p.t.busy_s / static_cast<double>(busy.size())),
               "ratio");
    layers.add("fleet.merge_s", p.merge_s, "s");
    last_spans = std::move(p.t.spans);
  });

  // 1 worker against W, both traced self-driven fleets.
  const FleetPass serial = run_fleet(w, 1, /*traced=*/true);
  if (const std::string d = ref->counters.diff(serial.run) +
                            traced_ref->diff(serial.t.counters);
      !d.empty()) {
    rep.fail_all("metro_sharded: traced fleet on 1 worker differs: " + d);
  }
  last_spans.print(std::cout, "spans of the last traced pass");
  layers.emit(rep);
  rep.layer("fleet.speedup", serial.wall_s / median(traced_s), "ratio",
            "1 worker vs " + std::to_string(opt.workers) + ", traced");
  rep.layer("bench.trace_overhead",
            median(traced_s) / median(untraced_s) - 1.0, "ratio",
            "traced self-driven fleet / run_city_workload - 1");
  rep.layer_na("obs.on_off_ratio", "ratio",
               "obs-off twin is run on city_1node only");
}

}  // namespace

void run_metro_sharded(const Options& opt, Report& rep) {
  if (opt.trace) {
    traced(opt, rep);
  } else {
    end_to_end(opt, rep);
  }
}

}  // namespace perfbench
