// Shared machinery of the repository benchmark program: options, the
// result report, deterministic-counter fingerprints, bench-side spans,
// the recovery and forwarding trace observers, and host probes.
//
// The benchmark only calls public functions of the simulator's libraries;
// every span here is recorded from outside, around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/prof.h"
#include "obs/trace.h"

namespace perfbench {

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 0;  // fleet workers: default_workers()
  std::string root = ".";   // repository checkout (committed artifacts)
};

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Host speed just before a timed pass, from a fixed probe workload:
/// kReferenceProbeS ÷ the probe's host time on the calling thread. Timed
/// values are reported in reference seconds, host seconds × this speed.
///
/// On a shared VM the host runs the same pass up to 1.7x slower for
/// stretches of seconds to minutes. The slowdown is in user time (no
/// steal time, no page faults: thread CPU time tracks wall time within
/// 0.5%), and it hits pointer-heavy, allocation-heavy code like the
/// simulator's far more than arithmetic or DRAM latency. The probe is a
/// small event loop of that kind, independent of the simulator's code.
/// Over four minutes of city_1node passes, the median pass time of
/// 17-s windows spread by 26% (IQR over median), the median of pass
/// time ÷ probe time by 7%. The probe runs on one thread only: probe
/// threads would leave memory in the allocator's per-thread arenas,
/// which shows in rss_peak_mb.
double host_speed();

/// The probe's time at reference speed: roughly its time on the 4-vCPU
/// VM the benchmark was tuned on, so that reference seconds read close
/// to host seconds there.
inline constexpr double kReferenceProbeS = 0.015;

/// Table note for a metric in reference seconds: the median of the same
/// samples in host seconds.
std::string host_seconds_note(const std::vector<double>& host_s);

double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// Runs `body(i)` for i = 0, 1, ... until at least `min_iters` ran and
/// `seconds` of host time have passed since the call.
template <typename Body>
void repeat_for(double seconds, std::size_t min_iters, Body&& body) {
  const std::uint64_t t0 = now_ns();
  std::size_t i = 0;
  do {
    body(i++);
  } while (i < min_iters || seconds_since(t0) < seconds);
}

// ---------------------------------------------------------------- report

/// Everything one benchmark invocation prints. End-to-end metrics are filled
/// by untraced runs, layer metrics by traced runs.
class Report {
 public:
  /// A check failed on one pass; the caller counts that pass as failed.
  void fail(const std::string& why);
  /// A check on the reference pass failed. Every pass repeats it, so
  /// every operation of the run is reported as failed.
  void fail_all(const std::string& why);
  bool correct() const { return failures_.empty(); }

  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A layer metric that does not exist on this workload, with the reason.
  void layer_na(const std::string& name, const std::string& unit,
                const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable table followed by one JSON line (the last line).
  void print(const Options& opt) const;

 private:
  struct Row {
    std::string name;
    std::optional<double> value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> e2e_;
  std::vector<Row> layers_;
  std::vector<std::string> failures_;
  bool all_failed_ = false;
};

/// Per-layer values gathered over several traced passes; emit() reports
/// each metric's median in first-added order.
class LayerSamples {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void emit(Report& rep) const;

 private:
  struct Series {
    std::vector<double> values;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Series> series_;
};

// ---------------------------------------------------------- fingerprints

/// Named deterministic counters of one workload pass. Two passes of the
/// same seed must produce identical fingerprints.
class Counters {
 public:
  void set(const std::string& key, std::uint64_t v) { values_[key] = v; }
  void add(const std::string& key, std::uint64_t v) { values_[key] += v; }
  std::uint64_t get(const std::string& key) const;
  const std::map<std::string, std::uint64_t>& values() const {
    return values_;
  }
  /// Empty when equal, else a description of the first difference.
  std::string diff(const Counters& other) const;

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// FNV-1a over raw bytes (fingerprints of samples and captures).
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

// ---------------------------------------------------------------- spans

/// Bench-side spans, kept in memory and summarised once at the end. A
/// span's self time is its duration minus the time its child spans and
/// leaf timings cover. Per-event leaf timings (the forwarding observer)
/// are aggregated per name and per enclosing span instead of being kept
/// one by one.
class SpanLog {
 public:
  int open(const char* name);
  void close(int idx);
  /// Adds a completed leaf timing under the innermost open span.
  void leaf(const char* name, std::uint64_t ns);

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Closed spans (or leaves) called `name`, summed.
  Totals total(std::string_view name) const;
  /// Leaf time recorded directly under spans with one of these names.
  std::uint64_t leaf_ns_under(
      std::initializer_list<std::string_view> parents) const;
  /// Calls, total and self time per span name.
  void print(std::ostream& os, const std::string& title) const;
  void absorb(const SpanLog& other);

 private:
  struct Span {
    const char* name;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    std::uint64_t child_ns = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, Totals, std::less<>> leaves_;
  std::map<std::string, std::uint64_t, std::less<>> leaf_by_parent_;
};

/// RAII span; a null log makes it inert (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), idx_(log ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

// ------------------------------------------------------------ observers

/// Recovered-failure disruption times (simulated seconds) grouped by
/// failure class: the failure plane in a storm, the Table 4 cell in the
/// paper matrix.
using DisruptionGroups = std::vector<std::vector<double>>;

/// Adds `more` to `into` group by group.
void append_groups(DisruptionGroups& into, const DisruptionGroups& more);
std::size_t group_samples(const DisruptionGroups& g);
std::uint64_t hash_groups(const DisruptionGroups& g);

/// Pairs each injected failure with its outcome, per UE: a
/// kFailureInjected opens a failure on its UE, the UE's next kRecovered
/// closes every open failure as recovered (disruption = recovery time -
/// injection time, simulated), a kTerminalFailure closes them as not
/// recovered, and failures still open at the end are not recovered.
/// Pairing is per UE, not per span id: in a multi-UE storm the tracer's
/// active span is shared by all UEs, while the `ue` field comes from the
/// simulator's context tag. Samples are grouped by the injected plane.
class RecoveryObserver : public seed::obs::EventObserver {
 public:
  void on_trace_event(const seed::obs::Event& e) override;

  std::uint64_t injected() const { return injected_; }
  std::uint64_t unrecovered() const;
  const DisruptionGroups& disruption_s() const { return samples_; }

 private:
  struct Open {
    std::int64_t at_us;
    std::uint8_t plane;
  };
  std::unordered_map<std::uint32_t, std::vector<Open>> open_;
  DisruptionGroups samples_{2};  // control plane, data plane
  std::uint64_t injected_ = 0;
  std::uint64_t terminal_ = 0;
};

/// Forwards every event to the program's observers (HealthEngine,
/// FlightRecorder) and times the calls as "obs.observer" leaves.
class ForwardingObserver : public seed::obs::EventObserver {
 public:
  ForwardingObserver(std::vector<seed::obs::EventObserver*> targets,
                     SpanLog* log)
      : targets_(std::move(targets)), log_(log) {}
  void on_trace_event(const seed::obs::Event& e) override;
  std::uint64_t events() const { return events_; }

 private:
  std::vector<seed::obs::EventObserver*> targets_;
  SpanLog* log_;
  std::uint64_t events_ = 0;
  int depth_ = 0;  // observers may emit events reentrantly
};

// ------------------------------------------------------- disruption stats

/// Reports failed_share, disruption_p50_s and disruption_tail_s.
/// disruption_p50_s is the geometric mean of the groups' medians (named
/// by `classes`): pooled, the data-plane cluster (~1 s) and the
/// control-plane cluster (5-8 s) put the median in the gap between them,
/// where it jumps from seed to seed. disruption_tail_s pools every sample
/// and takes the highest of p99.99/p99.9/p99/p90/p50 with at least 10
/// samples beyond it.
void report_recovery(Report& rep, std::uint64_t unrecovered,
                     std::uint64_t injected, const DisruptionGroups& groups,
                     const std::string& classes);

// ---------------------------------------------------------- profiler rows

/// Zone stats summed by name (shard captures fold in with add()).
class ZoneTable {
 public:
  void add(const std::vector<seed::obs::ProfRow>& rows);
  /// Zero stats for zones that never ran.
  const seed::obs::ZoneStats& at(const std::string& zone) const;

 private:
  std::map<std::string, seed::obs::ZoneStats> zones_;
};

/// The codec/crypto/seedproto/collab/cache/dispatch zones of one pass as
/// layer metrics, keyed by metric name (times are exclusive µs).
std::map<std::string, double> zone_metrics(const ZoneTable& z);
/// Share of sim.dispatch time in no zone: its self time minus the
/// observer calls made from inside the event loop, over its inclusive
/// time.
double unattributed_share(const ZoneTable& z,
                          std::uint64_t observer_in_dispatch_ns);

/// Adds the corenet, seed, nas, crypto, seedproto, modem and simapplet
/// layer metrics of one traced pass from its counters (keys as
/// add_city_counters names them) and its zone metrics (see zone_metrics).
void add_sim_counter_layers(LayerSamples& layers, const Counters& c,
                            const std::map<std::string, double>& zones);

// ---------------------------------------------------------------- host

/// VmHWM (peak resident set) of this process in KiB, 0 when unreadable.
std::uint64_t hwm_kib();
/// Bytes the allocator has handed out and not yet taken back. Unlike the
/// resident set, which moves in pages and varies by several percent
/// between identical runs, it repeats exactly.
std::uint64_t heap_bytes();

std::size_t default_workers();

/// Reads a whole file; empty optional when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace perfbench
