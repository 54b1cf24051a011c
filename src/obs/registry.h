// Named-metrics registry (the SEED observability layer, half two).
//
// Counters, gauges, and histograms keyed by dotted names
// ("seed.reset.b1", "seed.recovery_ms"), dumpable as Prometheus text
// exposition or JSON. Histograms are backed by metrics::Samples so they
// answer the same percentile queries the benches already use.
//
// Like the tracer, the registry singleton is thread-local (each
// simulation thread owns an isolated instance; fleet merges fold shard
// snapshots back in shard order) and OFF by
// default; instrument sites gate on `Registry::instance().enabled()`
// (or use the metric handle they cached) so the disabled path costs one
// branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "metrics/stats.h"

namespace seed::sim {
class Simulator;
}  // namespace seed::sim

namespace seed::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  void observe(double v) { samples_.add(v); }
  const metrics::Samples& samples() const { return samples_; }
  void reset() { samples_.clear(); }

 private:
  metrics::Samples samples_;
};

class Registry {
 public:
  /// The thread's live registry is instance(); freestanding Registry
  /// values act as snapshot/merge buffers for shard captures.
  Registry() = default;

  static Registry& instance();

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Handles are stable for the registry's lifetime; callers may cache
  /// them. Lookup creates the metric on first use.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Caps label cardinality: at most `limit` distinct labeled series
  /// ("base{label=value}") per base name; later label values route to
  /// the shared "base{overflow}" series and bump the
  /// `obs.series_dropped` counter. 0 (the default) = unlimited. The cap
  /// guards fleet-scale label explosions (1k UEs × per-UE series), so
  /// unlabeled metrics are never capped.
  void set_series_limit(std::size_t limit) { series_limit_ = limit; }
  std::size_t series_limit() const { return series_limit_; }
  /// Observations routed to an overflow series so far.
  std::uint64_t series_dropped() const;

  /// Prometheus text exposition: dots in names become underscores;
  /// histograms are emitted as summaries (p50/p90/p99 quantiles, _sum,
  /// _count).
  void dump_prometheus(std::ostream& os) const;
  void dump_json(std::ostream& os) const;

  /// Drops every metric (names and values).
  void clear();

  /// Folds another registry's metrics into this one: counters add,
  /// histograms append samples, gauges take the other's value (last write
  /// wins — fleet merges call this in shard order, so the merged dump is
  /// deterministic). Works even while disabled.
  void merge_from(const Registry& other);

  /// Value-type copy of this registry (shard captures hand snapshots
  /// across threads with it).
  Registry snapshot() const { return *this; }

 private:
  /// Cardinality budget of one base name. `overflow` names the base's
  /// shared overflow series, built once, when the base first hits the
  /// cap.
  struct SeriesBudget {
    std::size_t admitted = 0;
    std::string overflow;
  };

  /// Applied when `name` does not exist yet in a family: returns the
  /// series to use instead (the name itself, or its base's overflow
  /// series once the base is at the cardinality cap). The capped path
  /// builds no strings.
  std::string_view admit_series(std::string_view name);
  /// Finds `name` in `family`, creating the series admit_series picks
  /// on first use.
  template <typename M>
  M& find_or_admit(std::map<std::string, M, std::less<>>& family,
                   std::string_view name);

  bool enabled_ = false;
  std::size_t series_limit_ = 0;
  // std::map: deterministic dump order, and node stability keeps cached
  // metric handles valid across later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  // Distinct labeled series admitted per base name (all families share
  // one budget — base names do not collide across families in practice).
  std::map<std::string, SeriesBudget, std::less<>> label_cardinality_;
};

// ----- gated convenience helpers (one branch when disabled)

inline void count(std::string_view name, std::uint64_t by = 1) {
  Registry& r = Registry::instance();
  if (!r.enabled()) return;
  r.counter(name).inc(by);
}

inline void observe(std::string_view name, double v) {
  Registry& r = Registry::instance();
  if (!r.enabled()) return;
  r.histogram(name).observe(v);
}

/// Prometheus-style labeled series name ("modem.reject{cause=9}"). Every
/// distinct label value mints a separate series — fleet-scale callers
/// should keep these behind the registry's enabled() gate and set a
/// series limit (see Registry::set_series_limit).
inline std::string label_series(std::string_view name, std::string_view label,
                                std::string_view value) {
  std::string s(name);
  s += '{';
  s += label;
  s += '=';
  s += value;
  s += '}';
  return s;
}

/// Installs a Simulator probe exporting event-loop gauges
/// (`seed.sim.queue_depth`, `seed.sim.events_processed`) and a queue-depth
/// histogram, sampled every `every_n` processed events.
void observe_simulator(sim::Simulator& sim, std::uint64_t every_n = 2048);

}  // namespace seed::obs
