// city_1node: the 1k-UE Table-1 storm of bench_city_storm on one
// Simulator, one core and one thread, with the shared DiagnosisCache,
// rolling congestion, and the tracer with HealthEngine and
// FlightRecorder attached.
#include <iostream>
#include <optional>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/registry.h"
#include "obs/trace_binary.h"
#include "storm.h"
#include "testbed/multi_testbed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace seed;

constexpr std::uint64_t kDefaultSeed = 42;  // BENCH_city.json
constexpr std::size_t kUes = 1000;
constexpr long long kStormMin = 10;

enum class Mode {
  kObsOn,   // the workload as bench_city_storm runs it
  kObsOff,  // tracer disabled, no observers
  kTraced,  // kObsOn plus bench-side spans and the PROF_ZONE profiler
};

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t heap_growth = 0;
  StormTrace t;  // spans, zones and queue samples only when traced
  Counters obs;  // recovery accounting; needs the tracer on
  DisruptionGroups disruption_s;
  std::uint64_t unrecovered = 0;
  std::uint64_t observed_injections = 0;
  bool decode_ok = true;
};

Pass run_pass(std::uint64_t seed, Mode mode) {
  Pass p;
  const bool traced = mode == Mode::kTraced;
  SpanLog* log = traced ? &p.t.spans : nullptr;

  obs::Registry& reg = obs::Registry::instance();
  reg.clear();
  reg.enable(true);
  reg.set_series_limit(256);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.reset_span_counter();
  tracer.enable(mode != Mode::kObsOff);
  obs::Profiler& prof = obs::Profiler::instance();
  prof.clear();
  prof.enable(traced);

  obs::HealthEngine health;
  obs::FlightRecorder recorder(64);
  RecoveryObserver recovery;
  ForwardingObserver forward({&health, &recorder}, log);
  std::vector<obs::EventObserver*> attached;
  if (mode == Mode::kObsOn) attached = {&health, &recorder, &recovery};
  if (mode == Mode::kTraced) attached = {&forward, &recovery};
  for (obs::EventObserver* o : attached) tracer.add_observer(o);

  testbed::MultiOptions opts;
  opts.ue_count = kUes;
  opts.scheme = testbed::Scheme::kSeedU;
  opts.diag_cache = true;

  const std::uint64_t heap0 = heap_bytes();
  const std::uint64_t t0 = now_ns();
  std::optional<testbed::MultiTestbed> city;
  {
    const ScopedSpan span(log, "testbed.construct");
    city.emplace(seed, opts);
  }
  {
    const ScopedSpan span(log, "testbed.bring_up");
    city->bring_up_all();
  }
  p.setup_s = seconds_since(t0);
  const std::uint64_t heap1 = heap_bytes();
  p.heap_growth = heap1 > heap0 ? heap1 - heap0 : 0;

  sim::Simulator& sim = city->simulator();
  p.t.setup_events = sim.events_processed();
  const std::uint64_t t1 = now_ns();
  p.t.injections =
      run_storm(*city, kStormMin, log, traced ? &p.t.queued : nullptr);
  p.run_s = seconds_since(t1);
  p.t.storm_events = sim.events_processed() - p.t.setup_events;

  health.flush(sim.now().time_since_epoch().count());
  for (obs::EventObserver* o : attached) tracer.remove_observer(o);
  tracer.enable(false);

  p.t.counters.set("injections", p.t.injections);
  add_city_counters(*city, p.t.counters);
  if (mode != Mode::kObsOff) {
    p.disruption_s = recovery.disruption_s();
    p.unrecovered = recovery.unrecovered();
    p.observed_injections = recovery.injected();
    p.obs.set("observed_injections", p.observed_injections);
    p.obs.set("recovered", group_samples(p.disruption_s));
    p.obs.set("unrecovered", p.unrecovered);
    p.obs.set("disruption_hash", hash_groups(p.disruption_s));
  }
  if (traced) {
    p.t.ues = kUes;
    p.t.busy_s = p.setup_s + p.run_s;
    p.t.events_observed = forward.events();
    p.t.events_retained = tracer.events().size();
    std::ostringstream capture;
    {
      const ScopedSpan span(log, "obs.export");
      tracer.export_binary(capture);
    }
    const std::string bytes = std::move(capture).str();
    p.t.trace_bytes = bytes.size();
    std::vector<obs::Event> decoded;
    {
      const ScopedSpan span(log, "obs.decode");
      decoded = obs::TraceReader::decode(bytes);
    }
    p.decode_ok = decoded == tracer.events();
    p.t.zones.add(prof.rows());
  }
  prof.enable(false);
  prof.clear();
  tracer.clear();
  reg.clear();
  reg.enable(false);
  return p;
}

void common_checks(const Options& opt, Report& rep, const Pass& ref) {
  if (ref.observed_injections != ref.t.injections) {
    rep.fail_all("city_1node: recovery observer saw " +
                 std::to_string(ref.observed_injections) +
                 " injections, the storm made " +
                 std::to_string(ref.t.injections));
  }
  if (opt.seed == kDefaultSeed) {
    check_bench_city(opt, rep, "", ref.t.counters, kCity1kFields);
  }
}

void end_to_end(const Options& opt, Report& rep) {
  std::optional<Pass> ref;
  std::vector<double> setup_s, run_s, host_setup_s, host_run_s;
  repeat_for(opt.seconds, 3, [&](std::size_t) {
    const double speed = host_speed();
    Pass p = run_pass(opt.seed, Mode::kObsOn);
    rep.attempted += p.t.injections;
    if (ref) {
      const std::string d = ref->t.counters.diff(p.t.counters) +
                            ref->obs.diff(p.obs);
      if (!d.empty()) {
        rep.fail("city_1node: repeated pass differs: " + d);
        rep.failed += p.t.injections;
        return;
      }
    }
    setup_s.push_back(p.setup_s * speed);
    run_s.push_back(p.run_s * speed);
    host_setup_s.push_back(p.setup_s);
    host_run_s.push_back(p.run_s);
    if (!ref) {
      ref = std::move(p);
      common_checks(opt, rep, *ref);
    }
  });

  rep.e2e("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups" +
              host_seconds_note(host_setup_s));
  rep.e2e("run_s", median(run_s), "s",
          "median of " + std::to_string(run_s.size()) + " passes" +
              host_seconds_note(host_run_s));
  rep.e2e("events_per_s",
          static_cast<double>(ref->t.storm_events) / median(run_s),
          "events/s",
          std::to_string(ref->t.storm_events) + " storm events per pass");
  rep.e2e("rss_peak_mb", static_cast<double>(hwm_kib()) / 1024.0, "MiB");
  rep.e2e("bytes_per_ue", static_cast<double>(ref->heap_growth) / kUes, "B",
          "heap growth over the first set-up, " + std::to_string(kUes) +
              " UEs");
  report_recovery(rep, ref->unrecovered, ref->observed_injections,
                  ref->disruption_s, "control/data plane");
}

void traced(const Options& opt, Report& rep) {
  // Modes rotate so that the three see the same host conditions; the
  // untraced obs-on passes are the base of the tracing overhead and of
  // obs.on_off_ratio.
  std::optional<Pass> ref;
  std::vector<double> on_run_s, traced_run_s, on_eps, off_eps;
  LayerSamples layers;
  SpanLog last_spans;
  repeat_for(opt.seconds, 6, [&](std::size_t i) {
    const Mode mode = i % 3 == 0   ? Mode::kObsOn
                      : i % 3 == 1 ? Mode::kObsOff
                                   : Mode::kTraced;
    Pass p = run_pass(opt.seed, mode);
    rep.attempted += p.t.injections;
    if (ref) {
      // Observers are passive: every simulated counter is identical with
      // obs on, off and traced.
      std::string d = ref->t.counters.diff(p.t.counters);
      if (mode != Mode::kObsOff) d += ref->obs.diff(p.obs);
      if (!d.empty() || !p.decode_ok) {
        rep.fail(std::string("city_1node: ") +
                 (mode == Mode::kObsOff ? "obs-off" : "repeated") +
                 " pass differs: " + (d.empty() ? "SEEDTRC round trip" : d));
        rep.failed += p.t.injections;
        return;
      }
    }
    const double eps = static_cast<double>(p.t.storm_events) / p.run_s;
    switch (mode) {
      case Mode::kObsOn:
        on_run_s.push_back(p.run_s);
        on_eps.push_back(eps);
        break;
      case Mode::kObsOff:
        off_eps.push_back(eps);
        break;
      case Mode::kTraced:
        traced_run_s.push_back(p.run_s);
        add_storm_layers(layers, p.t);
        layers.add("fleet.shards", 0, "count");
        last_spans = std::move(p.t.spans);
        break;
    }
    if (!ref) {
      ref = std::move(p);
      common_checks(opt, rep, *ref);
    }
  });

  last_spans.print(std::cout, "spans of the last traced pass");
  layers.emit(rep);
  rep.layer("obs.on_off_ratio", median(on_eps) / median(off_eps), "ratio",
            "events/s with tracer+observers / without");
  rep.layer("bench.trace_overhead",
            median(traced_run_s) / median(on_run_s) - 1.0, "ratio",
            "traced run_s / untraced run_s - 1");
  for (const char* m : {"fleet.shard_s_p50", "fleet.shard_s_max",
                        "fleet.imbalance", "fleet.merge_s", "fleet.speedup"}) {
    rep.layer_na(m, "", "one simulator on one thread: no fleet pool");
  }
}

}  // namespace

void run_city_1node(const Options& opt, Report& rep) {
  if (opt.trace) {
    traced(opt, rep);
  } else {
    end_to_end(opt, rep);
  }
}

}  // namespace perfbench
