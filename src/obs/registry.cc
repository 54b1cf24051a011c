#include "obs/registry.h"

#include <array>
#include <cstdio>
#include <ostream>

#include "simcore/simulator.h"

namespace seed::obs {
namespace {

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string fmt(double v) {
  std::array<char, 48> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9g", v);
  return std::string(buf.data());
}

}  // namespace

Registry& Registry::instance() {
  // Thread-local: every fleet-runner worker gets an isolated registry;
  // shard snapshots are folded back into the caller's instance in shard
  // order (merge_from).
  static thread_local Registry registry;
  return registry;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name).inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name).set(g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histogram(name);
    for (double v : h.samples().values()) mine.observe(v);
  }
}

std::string_view Registry::admit_series(std::string_view name) {
  const auto brace = name.find('{');
  if (series_limit_ == 0 || brace == std::string_view::npos) return name;
  const std::string_view base = name.substr(0, brace);
  auto it = label_cardinality_.find(base);
  if (it == label_cardinality_.end()) {
    it = label_cardinality_.emplace(std::string(base), SeriesBudget{}).first;
  }
  SeriesBudget& budget = it->second;
  if (budget.admitted >= series_limit_) {
    // Route the observation into the base's shared overflow bucket so
    // the aggregate stays right even though the label is dropped. The
    // overflow series itself does not consume cardinality budget.
    constexpr std::string_view kDropped = "obs.series_dropped";
    auto dropped = counters_.find(kDropped);
    if (dropped == counters_.end()) {
      dropped = counters_.emplace(std::string(kDropped), Counter{}).first;
    }
    dropped->second.inc();
    if (budget.overflow.empty()) {
      budget.overflow.assign(base);
      budget.overflow += "{overflow}";
    }
    return budget.overflow;
  }
  ++budget.admitted;
  return name;
}

template <typename M>
M& Registry::find_or_admit(std::map<std::string, M, std::less<>>& family,
                           std::string_view name) {
  auto it = family.find(name);
  if (it != family.end()) return it->second;
  const std::string_view series = admit_series(name);
  it = family.find(series);
  if (it == family.end()) {
    it = family.emplace(std::string(series), M{}).first;
  }
  return it->second;
}

std::uint64_t Registry::series_dropped() const {
  const auto it = counters_.find("obs.series_dropped");
  return it == counters_.end() ? 0 : it->second.value();
}

Counter& Registry::counter(std::string_view name) {
  return find_or_admit(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_admit(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_admit(histograms_, name);
}

void Registry::dump_prometheus(std::ostream& os) const {
  for (const auto& [name, c] : counters_) {
    const std::string n = sanitize(name);
    os << "# TYPE " << n << " counter\n" << n << " " << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = sanitize(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << fmt(g.value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = sanitize(name);
    const metrics::Samples& s = h.samples();
    os << "# TYPE " << n << " summary\n";
    if (!s.empty()) {
      os << n << "{quantile=\"0.5\"} " << fmt(s.percentile(50)) << "\n"
         << n << "{quantile=\"0.9\"} " << fmt(s.percentile(90)) << "\n"
         << n << "{quantile=\"0.99\"} " << fmt(s.percentile(99)) << "\n";
    }
    double sum = 0;
    for (double v : s.values()) sum += v;
    os << n << "_sum " << fmt(sum) << "\n"
       << n << "_count " << s.count() << "\n";
  }
}

void Registry::dump_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << fmt(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    const metrics::Samples& s = h.samples();
    os << "\"" << name << "\":{\"count\":" << s.count();
    if (!s.empty()) {
      os << ",\"min\":" << fmt(s.min()) << ",\"p50\":" << fmt(s.percentile(50))
         << ",\"p90\":" << fmt(s.percentile(90))
         << ",\"p99\":" << fmt(s.percentile(99))
         << ",\"max\":" << fmt(s.max()) << ",\"mean\":" << fmt(s.mean());
    }
    os << "}";
  }
  os << "}}\n";
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  label_cardinality_.clear();
}

void observe_simulator(sim::Simulator& sim, std::uint64_t every_n) {
  sim.set_probe(
      [](std::size_t queued, std::uint64_t processed) {
        Registry& r = Registry::instance();
        if (!r.enabled()) return;
        r.gauge("seed.sim.queue_depth").set(static_cast<double>(queued));
        r.gauge("seed.sim.events_processed")
            .set(static_cast<double>(processed));
        r.histogram("seed.sim.queue_depth_hist")
            .observe(static_cast<double>(queued));
      },
      every_n);
}

}  // namespace seed::obs
