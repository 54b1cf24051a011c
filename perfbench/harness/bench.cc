#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <malloc.h>
#include <queue>
#include <set>
#include <sstream>
#include <thread>

#include "metrics/stats.h"

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

namespace {

/// The probe's fixed work: a small discrete-event loop of timestamped
/// closures on a binary heap; each event looks up per-entity state in a
/// hash map, builds a short message, files a timer in an ordered map and
/// schedules its successor. It uses none of the simulator's code, so a
/// change to the simulator leaves it alone.
std::uint64_t probe_work() {
  struct Ev {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Ev& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, std::string> state;
  std::map<std::uint64_t, std::uint32_t> timers;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, now = 0, seq = 0, sum = 0;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(std::uint32_t)> step = [&](std::uint32_t id) {
    std::string& st = state[id];
    std::vector<std::uint8_t> msg(16 + rnd() % 96);
    for (std::size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<std::uint8_t>(st.size() + i);
    }
    st.assign(reinterpret_cast<const char*>(msg.data()), msg.size() / 2);
    sum += msg.back();
    const std::uint64_t r = rnd();
    timers[now + r % 5000] = id;
    if (timers.size() > 3000) timers.erase(timers.begin());
    queue.push(Ev{now + 1 + r % 1000, seq++, [&step, id] { step(id); }});
  };
  for (std::uint32_t id = 0; id < 2000; ++id) step(id);
  for (int i = 0; i < 30000; ++i) {
    Ev e = queue.top();
    queue.pop();
    now = e.at;
    e.fn();
  }
  return sum + state.size();
}

}  // namespace

double host_speed() {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t out = probe_work();
  const double probe_s = seconds_since(t0);
  // The checksum keeps the work from being optimised away.
  return kReferenceProbeS / (out == 0 ? probe_s + 1e-12 : probe_s);
}

std::string host_seconds_note(const std::vector<double>& host_s) {
  std::ostringstream os;
  os << "; reference s, host median " << median(host_s) << " s";
  return os.str();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  seed::metrics::Samples s;
  s.add_all(v);
  return s.percentile(p);
}

// ---------------------------------------------------------------- report

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::fail_all(const std::string& why) {
  failures_.push_back(why);
  all_failed_ = true;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  e2e_.push_back(Row{name, value, unit, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  layers_.push_back(Row{name, value, unit, note});
}

void Report::layer_na(const std::string& name, const std::string& unit,
                      const std::string& why) {
  layers_.push_back(Row{name, std::nullopt, unit, why});
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::print(const Options& opt) const {
  const std::vector<Row>& rows = opt.trace ? layers_ : e2e_;
  std::cout << "== " << opt.workload << " seed " << opt.seed
            << (opt.trace ? " (traced run: per-layer metrics)"
                          : " (end-to-end metrics)")
            << "\n";
  for (const Row& r : rows) {
    std::cout << "  " << std::left << std::setw(30) << r.name << " ";
    if (r.value && std::isfinite(*r.value)) {
      std::ostringstream v;
      v << std::setprecision(6) << *r.value;
      std::cout << std::setw(14) << v.str() << std::setw(9) << r.unit;
    } else {
      std::cout << std::setw(14) << "n/a" << std::setw(9) << r.unit;
    }
    if (!r.note.empty()) std::cout << " " << r.note;
    std::cout << "\n";
  }
  std::cout << std::right;
  for (const std::string& f : failures_) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }
  const std::uint64_t n_failed = all_failed_ ? attempted : failed;
  std::cout << "  checks: " << (correct() ? "all passed" : "FAILED")
            << "; attempted " << attempted << ", failed " << n_failed << "\n";

  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << n_failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Row& r : rows) {
    // A metric that does not exist or is not finite is left out, so that
    // run.py stops on it instead of reading a made-up value.
    if (!r.value || !std::isfinite(*r.value)) continue;
    js << (first ? "" : ", ") << "\"" << json_escape(r.name)
       << "\": {\"value\": " << *r.value << ", \"unit\": \""
       << json_escape(r.unit) << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

void LayerSamples::add(const std::string& name, double value,
                       const std::string& unit) {
  auto [it, fresh] = series_.try_emplace(name);
  if (fresh) {
    order_.push_back(name);
    it->second.unit = unit;
  }
  it->second.values.push_back(value);
}

void LayerSamples::emit(Report& rep) const {
  for (const std::string& name : order_) {
    const Series& s = series_.at(name);
    rep.layer(name, median(s.values), s.unit);
  }
}

// ---------------------------------------------------------- fingerprints

std::uint64_t Counters::get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second;
}

std::string Counters::diff(const Counters& other) const {
  for (const auto& [k, v] : values_) {
    const auto it = other.values_.find(k);
    if (it == other.values_.end()) return k + " missing";
    if (it->second != v) {
      return k + " " + std::to_string(v) + " != " + std::to_string(it->second);
    }
  }
  for (const auto& [k, v] : other.values_) {
    if (values_.find(k) == values_.end()) return k + " unexpected";
  }
  return "";
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- spans

int SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.t0 = now_ns();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(int idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.t1 = now_ns();
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.t1 - s.t0;
  }
}

void SpanLog::leaf(const char* name, std::uint64_t ns) {
  Totals& t = leaves_[name];
  ++t.calls;
  t.total_ns += ns;
  t.self_ns += ns;
  if (stack_.empty()) {
    leaf_by_parent_[""] += ns;
    return;
  }
  Span& parent = spans_[static_cast<std::size_t>(stack_.back())];
  parent.child_ns += ns;
  leaf_by_parent_[parent.name] += ns;
}

SpanLog::Totals SpanLog::total(std::string_view name) const {
  Totals t;
  if (const auto it = leaves_.find(name); it != leaves_.end()) t = it->second;
  for (const Span& s : spans_) {
    if (s.t1 == 0 || name != s.name) continue;  // open, or another name
    const std::uint64_t d = s.t1 - s.t0;
    ++t.calls;
    t.total_ns += d;
    t.self_ns += d > s.child_ns ? d - s.child_ns : 0;
  }
  return t;
}

std::uint64_t SpanLog::leaf_ns_under(
    std::initializer_list<std::string_view> parents) const {
  std::uint64_t ns = 0;
  for (const std::string_view p : parents) {
    if (const auto it = leaf_by_parent_.find(p); it != leaf_by_parent_.end()) {
      ns += it->second;
    }
  }
  return ns;
}

void SpanLog::absorb(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
  for (const auto& [k, t] : other.leaves_) {
    Totals& mine = leaves_[k];
    mine.calls += t.calls;
    mine.total_ns += t.total_ns;
    mine.self_ns += t.self_ns;
  }
  for (const auto& [k, ns] : other.leaf_by_parent_) leaf_by_parent_[k] += ns;
}

void SpanLog::print(std::ostream& os, const std::string& title) const {
  std::set<std::string_view> names;
  for (const Span& s : spans_) names.insert(s.name);
  for (const auto& [name, t] : leaves_) names.insert(name);
  os << "  -- " << title << " (calls, total ms, self ms)\n";
  for (const std::string_view name : names) {
    const Totals t = total(name);
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(9) << t.calls << std::fixed << std::setprecision(3)
       << std::setw(12) << static_cast<double>(t.total_ns) / 1e6
       << std::setw(12) << static_cast<double>(t.self_ns) / 1e6 << "\n";
  }
  os.unsetf(std::ios::floatfield);
}

// ------------------------------------------------------------ observers

void append_groups(DisruptionGroups& into, const DisruptionGroups& more) {
  if (into.size() < more.size()) into.resize(more.size());
  for (std::size_t i = 0; i < more.size(); ++i) {
    into[i].insert(into[i].end(), more[i].begin(), more[i].end());
  }
}

std::size_t group_samples(const DisruptionGroups& g) {
  std::size_t n = 0;
  for (const std::vector<double>& v : g) n += v.size();
  return n;
}

std::uint64_t hash_groups(const DisruptionGroups& g) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const std::vector<double>& v : g) {
    h = fnv1a(v.data(), v.size() * sizeof(double), h);
    const std::uint64_t n = v.size();
    h = fnv1a(&n, sizeof n, h);
  }
  return h;
}

void RecoveryObserver::on_trace_event(const seed::obs::Event& e) {
  using seed::obs::EventKind;
  switch (e.kind) {
    case EventKind::kFailureInjected:
      open_[e.ue].push_back(Open{e.at_us, e.plane == 0 ? std::uint8_t{0}
                                                       : std::uint8_t{1}});
      ++injected_;
      break;
    case EventKind::kRecovered: {
      const auto it = open_.find(e.ue);
      if (it == open_.end()) break;
      for (const Open& o : it->second) {
        samples_[o.plane].push_back(static_cast<double>(e.at_us - o.at_us) /
                                    1e6);
      }
      it->second.clear();
      break;
    }
    case EventKind::kTerminalFailure: {
      const auto it = open_.find(e.ue);
      if (it == open_.end()) break;
      terminal_ += it->second.size();
      it->second.clear();
      break;
    }
    default:
      break;
  }
}

std::uint64_t RecoveryObserver::unrecovered() const {
  std::uint64_t n = terminal_;
  for (const auto& [ue, open] : open_) n += open.size();
  return n;
}

void ForwardingObserver::on_trace_event(const seed::obs::Event& e) {
  ++events_;
  const std::uint64_t t0 = depth_ == 0 ? now_ns() : 0;
  ++depth_;
  for (seed::obs::EventObserver* t : targets_) t->on_trace_event(e);
  --depth_;
  if (depth_ == 0 && log_ != nullptr) log_->leaf("obs.observer", now_ns() - t0);
}

// ------------------------------------------------------- disruption stats

namespace {

struct Disruption {
  double p50_s = 0.0;
  double tail_s = 0.0;
  double tail_pct = 0.0;  // the percentile tail_s is
  std::size_t samples = 0;
};

Disruption disruption_of(const DisruptionGroups& groups) {
  Disruption d;
  std::vector<double> pooled;
  double log_sum = 0.0;
  int medians = 0;
  for (const std::vector<double>& g : groups) {
    pooled.insert(pooled.end(), g.begin(), g.end());
    if (g.empty()) continue;
    log_sum += std::log(median(g));
    ++medians;
  }
  d.samples = pooled.size();
  if (pooled.empty()) return d;
  d.p50_s = std::exp(log_sum / medians);
  seed::metrics::Samples s;
  s.add_all(pooled);
  const auto n = static_cast<double>(pooled.size());
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (n * (100.0 - p) / 100.0 >= 10.0 || p == 50.0) {
      d.tail_pct = p;
      d.tail_s = s.percentile(p);
      break;
    }
  }
  return d;
}

}  // namespace

void report_recovery(Report& rep, std::uint64_t unrecovered,
                     std::uint64_t injected, const DisruptionGroups& groups,
                     const std::string& classes) {
  const Disruption d = disruption_of(groups);
  rep.e2e("failed_share",
          static_cast<double>(unrecovered) / static_cast<double>(injected),
          "ratio",
          std::to_string(unrecovered) + " of " + std::to_string(injected) +
              " injected failures not recovered");
  rep.e2e("disruption_p50_s", d.p50_s, "s",
          "simulated, geometric mean of the " + classes + " medians");
  std::ostringstream tail;
  tail << "simulated, p" << d.tail_pct << " of " << d.samples << " samples";
  rep.e2e("disruption_tail_s", d.tail_s, "s", tail.str());
}

// ---------------------------------------------------------- profiler rows

void ZoneTable::add(const std::vector<seed::obs::ProfRow>& rows) {
  for (const seed::obs::ProfRow& r : rows) zones_[r.name].add(r.stats);
}

const seed::obs::ZoneStats& ZoneTable::at(const std::string& zone) const {
  static const seed::obs::ZoneStats kNone;
  const auto it = zones_.find(zone);
  return it == zones_.end() ? kNone : it->second;
}

std::map<std::string, double> zone_metrics(const ZoneTable& z) {
  std::map<std::string, double> m;
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3;
  };
  const auto calls_bytes_us = [&](const std::string& prefix,
                                  const std::string& zone, bool allocs) {
    const seed::obs::ZoneStats& s = z.at(zone);
    m[prefix + "_calls"] = static_cast<double>(s.calls);
    m[prefix + "_bytes"] = static_cast<double>(s.bytes);
    if (allocs) m[prefix + "_allocs"] = static_cast<double>(s.allocs);
    m[prefix + "_us"] = us(s.excl_ns);
  };
  calls_bytes_us("nas.encode", "nas.encode", true);
  calls_bytes_us("nas.decode", "nas.decode", true);
  calls_bytes_us("crypto.eea2", "crypto.eea2", false);
  calls_bytes_us("crypto.eia2", "crypto.eia2", false);
  m["seedproto.fragment_calls"] =
      static_cast<double>(z.at("seedproto.fragment").calls);
  m["seedproto.fragment_us"] = us(z.at("seedproto.fragment").excl_ns);
  m["seedproto.reassemble_calls"] =
      static_cast<double>(z.at("seedproto.reassemble").calls);
  m["seedproto.reassemble_us"] = us(z.at("seedproto.reassemble").excl_ns);
  m["corenet.collab_tx_us"] = us(z.at("core.collab_tx").excl_ns);
  m["corenet.collab_rx_us"] = us(z.at("core.collab_rx").excl_ns);
  m["modem.collab_tx_us"] = us(z.at("modem.collab_tx").excl_ns);
  m["modem.collab_rx_us"] = us(z.at("modem.collab_rx").excl_ns);
  m["seed.cache_lookup_us"] = us(z.at("diagcache.lookup").excl_ns);
  m["seed.cache_digest_us"] = us(z.at("diagcache.digest").excl_ns);
  m["simcore.dispatch_us"] = us(z.at("sim.dispatch").excl_ns);
  return m;
}

double unattributed_share(const ZoneTable& z,
                          std::uint64_t observer_in_dispatch_ns) {
  const seed::obs::ZoneStats& d = z.at("sim.dispatch");
  return (static_cast<double>(d.excl_ns) -
          static_cast<double>(observer_in_dispatch_ns)) /
         static_cast<double>(d.incl_ns);
}


namespace {

/// Unit of a zone metric name (*_us -> us, *_bytes -> B, else count).
std::string zone_metric_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_bytes")) return "B";
  return "count";
}

}  // namespace

void add_sim_counter_layers(LayerSamples& layers, const Counters& c,
                            const std::map<std::string, double>& zones) {
  const auto count = [&](const char* name, const char* key) {
    layers.add(name, static_cast<double>(c.get(key)), "count");
  };
  const auto zone = [&](const char* name) {
    layers.add(name, zones.at(name), zone_metric_unit(name));
  };
  count("corenet.nas_rx", "nas_rx");
  count("corenet.nas_tx", "nas_tx");
  count("corenet.rejects", "rejects");
  count("corenet.diag_downlinks", "diag_downlinks");
  count("corenet.diag_reports_rx", "diag_reports_rx");
  count("corenet.auth_vectors", "auth_vectors");
  zone("corenet.collab_tx_us");
  zone("corenet.collab_rx_us");
  count("seed.cache_hits", "cache_hits");
  count("seed.cache_misses", "cache_misses");
  count("seed.cache_bypasses", "cache_bypasses");
  count("seed.cache_invalidations", "cache_invalidations");
  const double lookups =
      static_cast<double>(c.get("cache_hits") + c.get("cache_misses"));
  layers.add("seed.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(c.get("cache_hits")) / lookups
                         : 0.0,
             "ratio");
  zone("seed.cache_lookup_us");
  zone("seed.cache_digest_us");
  count("seed.netrecord_causes", "netrecord_causes");
  for (const char* z :
       {"nas.encode_calls", "nas.encode_bytes", "nas.encode_allocs",
        "nas.encode_us", "nas.decode_calls", "nas.decode_bytes",
        "nas.decode_allocs", "nas.decode_us", "crypto.eea2_calls",
        "crypto.eea2_bytes", "crypto.eea2_us", "crypto.eia2_calls",
        "crypto.eia2_bytes", "crypto.eia2_us", "seedproto.fragment_calls",
        "seedproto.fragment_us", "seedproto.reassemble_calls",
        "seedproto.reassemble_us"}) {
    zone(z);
  }
  count("modem.registrations", "modem_registrations");
  count("modem.pdu_attempts", "modem_pdu_attempts");
  zone("modem.collab_rx_us");
  zone("modem.collab_tx_us");
  count("simapplet.plans_executed", "applet_plans");
  count("simapplet.actions_run", "applet_actions");
  count("simapplet.reports_sent_uplink", "applet_reports_up");
}

// ---------------------------------------------------------------- host

namespace {

std::uint64_t status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

std::uint64_t hwm_kib() { return status_kib("VmHWM:"); }

std::uint64_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::size_t default_workers() {
  // One worker per core, and never more than the 8 shards of the metro
  // city would keep busy.
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 8);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
