#include "storm.h"

#include "seed/infra_assist.h"

namespace perfbench {

using namespace seed;

std::uint64_t run_storm(testbed::MultiTestbed& city, long long storm_min,
                        SpanLog* log, std::vector<double>* queued) {
  auto& sim = city.simulator();
  auto& rng = city.rng();
  const auto n_ues = static_cast<int>(city.ue_count());
  city.start_rolling_congestion(sim::seconds(30), sim::seconds(12), 0.05);
  const auto storm_end = sim.now() + sim::minutes(storm_min);
  const double mean_gap_s = 120.0;
  std::uint64_t injections = 0;
  while (sim.now() < storm_end) {
    const auto ue =
        static_cast<corenet::UeId>(rng.uniform_int(0, n_ues - 1));
    if (queued != nullptr) {
      queued->push_back(static_cast<double>(sim.queued()));
    }
    {
      const ScopedSpan span(log, "testbed.inject");
      city.inject_sampled(ue);
    }
    ++injections;
    const double gap =
        rng.uniform(0.0, 2.0 * mean_gap_s / static_cast<double>(n_ues));
    {
      const ScopedSpan span(log, "sim.run_for");
      sim.run_for(sim::secs_f(gap));
    }
  }
  {
    const ScopedSpan span(log, "sim.run_for");
    sim.run_for(sim::minutes(3));
  }
  return injections;
}

void add_city_counters(testbed::MultiTestbed& city, Counters& c) {
  const corenet::CoreStats& cs = city.core().stats();
  c.add("sim_events", city.simulator().events_processed());
  c.add("healthy", city.healthy_count());
  c.add("nas_rx", cs.nas_rx);
  c.add("nas_tx", cs.nas_tx);
  c.add("rejects", cs.rejects_sent);
  c.add("diag_downlinks", cs.diag_downlinks);
  c.add("diag_reports_rx", cs.diag_reports_rx);
  c.add("auth_vectors", cs.auth_vectors);
  if (const core::DiagnosisCache* dc = city.core().diag_cache()) {
    c.add("cache_hits", dc->stats().hits);
    c.add("cache_misses", dc->stats().misses);
    c.add("cache_bypasses", dc->stats().bypasses);
    c.add("cache_invalidations", dc->stats().invalidations);
    c.add("cache_entries", dc->size());
  }
  c.add("netrecord_causes", city.learner().known_causes());
  for (std::size_t i = 0; i < city.ue_count(); ++i) {
    device::Device& dev = city.dev(i);
    c.add("modem_registrations",
          dev.modem().stats().registrations_attempted);
    c.add("modem_pdu_attempts", dev.modem().stats().pdu_attempted);
    c.add("applet_plans", dev.applet().stats().plans_executed);
    c.add("applet_actions", dev.applet().stats().actions_run);
    c.add("applet_reports_up", dev.applet().stats().reports_sent_uplink);
  }
}

void add_storm_layers(LayerSamples& layers, const StormTrace& t) {
  const auto secs = [&](const char* span) {
    return static_cast<double>(t.spans.total(span).total_ns) / 1e9;
  };
  const double run_s = secs("sim.run_for");
  const double observer_s = secs("obs.observer");
  const auto zones = zone_metrics(t.zones);
  layers.add("simcore.events", static_cast<double>(t.storm_events), "count");
  layers.add("simcore.run_s", run_s, "s");
  layers.add("simcore.ns_per_event",
             run_s * 1e9 / static_cast<double>(t.storm_events), "ns");
  layers.add("simcore.queued_p50", percentile(t.queued, 50), "count");
  layers.add("simcore.queued_p99", percentile(t.queued, 99), "count");
  layers.add("simcore.dispatch_us", zones.at("simcore.dispatch_us"), "us");
  // Observer calls from inject_sampled and the constructors run outside
  // the event loop; bring-up and the run_for slices run inside it.
  layers.add("simcore.unattributed_share",
             unattributed_share(t.zones, t.spans.leaf_ns_under(
                                             {"sim.run_for",
                                              "testbed.bring_up"})),
             "ratio");
  layers.add("testbed.construct_s", secs("testbed.construct"), "s");
  layers.add("testbed.bring_up_s", secs("testbed.bring_up"), "s");
  layers.add("testbed.bring_up_events", static_cast<double>(t.setup_events),
             "count");
  layers.add("testbed.inject_us",
             static_cast<double>(t.spans.total("testbed.inject").self_ns) / 1e3,
             "us");
  layers.add("testbed.injections", static_cast<double>(t.injections),
             "count");
  add_sim_counter_layers(layers, t.counters, zones);
  layers.add("obs.events_observed", static_cast<double>(t.events_observed),
             "count");
  layers.add("obs.observer_us", observer_s * 1e6, "us");
  layers.add("obs.observer_share", observer_s / t.busy_s, "ratio");
  layers.add("obs.events_retained", static_cast<double>(t.events_retained),
             "count");
  layers.add("obs.trace_bytes", static_cast<double>(t.trace_bytes), "B");
  layers.add("obs.trace_bytes_per_ue",
             static_cast<double>(t.trace_bytes) / static_cast<double>(t.ues),
             "B");
  layers.add("obs.export_us", secs("obs.export") * 1e6, "us");
  layers.add("obs.decode_us", secs("obs.decode") * 1e6, "us");
}

const std::vector<std::pair<std::string, std::string>> kCity1kFields = {
    {"injections", "injections"},
    {"sim_events", "sim_events"},
    {"healthy", "healthy"},
    {"nas_rx", "nas_rx"},
    {"nas_tx", "nas_tx"},
    {"rejects", "rejects"},
    {"diag_downlinks", "diag_downlinks"},
    {"diag_reports_rx", "diag_reports_rx"},
    {"cache.hits", "cache_hits"},
    {"cache.misses", "cache_misses"},
    {"cache.bypasses", "cache_bypasses"},
    {"cache.invalidations", "cache_invalidations"},
    {"cache.entries", "cache_entries"},
};

}  // namespace perfbench
