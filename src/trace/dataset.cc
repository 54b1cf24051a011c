#include "trace/dataset.h"

#include <algorithm>

#include "common/codec.h"
#include "nas/messages.h"

namespace seed::trace {

namespace {

// Table 1 cause mixture, as fractions of *all* failures. The five listed
// causes per plane cover part of each plane's mass (56.2% CP / 43.8% DP);
// the remainder is spread over other registered causes of that plane.
struct MixEntry {
  nas::Plane plane;
  std::uint8_t cause;
  double weight;
};

const std::vector<MixEntry>& mixture() {
  using P = nas::Plane;
  static const std::vector<MixEntry> kMix = {
      // Control plane top-5 (paper Table 1).
      {P::kControl, 9, 15.2},    // UE identity cannot be derived
      {P::kControl, 15, 12.6},   // no suitable cells in tracking area
      {P::kControl, 11, 10.3},   // PLMN not allowed
      {P::kControl, 50, 7.5},    // no EPS bearer context activated
      {P::kControl, 98, 2.8},    // message type not compatible with state
      // Control-plane remainder (~7.8%).
      {P::kControl, 3, 2.1},     // illegal UE
      {P::kControl, 22, 2.2},    // congestion
      {P::kControl, 7, 1.2},     // 5GS services not allowed
      {P::kControl, 96, 1.3},    // invalid mandatory information
      {P::kControl, 111, 1.0},   // protocol error, unspecified
      // Data plane top-5.
      {P::kData, 33, 7.9},       // service option not subscribed
      {P::kData, 96, 5.9},       // invalid mandatory information
      {P::kData, 29, 4.7},       // user authentication failed
      {P::kData, 31, 2.6},       // request rejected, unspecified
      {P::kData, 26, 1.9},       // insufficient resources
      // Data-plane remainder (~20.8%), spread thinly so the published
      // top-5 ordering is preserved.
      {P::kData, 27, 1.8},       // missing or unknown DNN
      {P::kData, 28, 1.8},       // unknown PDU session type
      {P::kData, 41, 1.8},       // semantic error in TFT
      {P::kData, 42, 1.7},       // syntactical error in TFT
      {P::kData, 44, 1.8},       // semantic errors in packet filters
      {P::kData, 45, 1.7},       // syntactical error in packet filters
      {P::kData, 59, 1.7},       // unsupported 5QI
      {P::kData, 70, 1.7},       // missing or unknown DNN in slice
      {P::kData, 54, 1.7},       // PDU session does not exist
      {P::kData, 38, 1.7},       // network failure
      {P::kData, 68, 1.7},       // not supported SSC mode
      {P::kData, 83, 1.7},       // semantic error in QoS operation
  };
  return kMix;
}

Bytes make_outcome(sim::Rng& rng, nas::Plane plane, bool failed,
                   std::uint8_t cause) {
  nas::NasMessage msg;
  if (plane == nas::Plane::kControl) {
    if (failed) {
      nas::RegistrationReject rej;
      rej.cause = cause;
      if (rng.chance(0.3)) rej.t3502_seconds = 720;
      msg = rej;
    } else {
      nas::RegistrationAccept acc;
      acc.guti = nas::Guti{{310, 260}, 1, 1,
                           static_cast<std::uint32_t>(rng.next())};
      acc.tai_list = {nas::Tai{{310, 260}, 100}};
      msg = acc;
    }
  } else {
    nas::SmHeader hdr{1, static_cast<std::uint8_t>(rng.uniform_int(1, 250))};
    if (failed) {
      nas::PduSessionEstablishmentReject rej;
      rej.hdr = hdr;
      rej.cause = cause;
      if (rng.chance(0.2)) rej.backoff_seconds = 60;
      msg = rej;
    } else {
      nas::PduSessionEstablishmentAccept acc;
      acc.hdr = hdr;
      acc.ue_addr = nas::Ipv4{{10, 45, 0, 9}};
      acc.dns_addr = nas::Ipv4{{10, 45, 0, 1}};
      acc.qos = nas::QosRule{9, 10000, 50000};
      msg = acc;
    }
  }
  Bytes wire;
  nas::encode_message_into(msg, wire);
  return wire;
}

// Corpus shape (paper §3.1): 2832/24000 ≈ 11.8% of procedures fail,
// spread over 8 carriers and 32 device models, 2015-Q3 .. 2021-Q4.
constexpr double kFailureRatio = 0.118;
constexpr int kCarriers = 8;
constexpr int kDeviceModels = 32;
constexpr double kWindowDays = 2285;

}  // namespace

void ProcedureRecord::encode(Writer& w) const {
  w.u64(static_cast<std::uint64_t>(timestamp_s * 1000.0));
  w.u8(carrier);
  w.u8(device_model);
  w.u8(plane == nas::Plane::kControl ? 0 : 1);
  w.u8(failed ? 1 : 0);
  w.lv16(outcome_message);
}

std::optional<ProcedureRecord> ProcedureRecord::decode(Reader& r) {
  ProcedureRecord rec;
  rec.timestamp_s = static_cast<double>(r.u64()) / 1000.0;
  rec.carrier = r.u8();
  rec.device_model = r.u8();
  const std::uint8_t plane = r.u8();
  const std::uint8_t failed = r.u8();
  const BytesView outcome = r.lv16();
  rec.outcome_message.assign(outcome.begin(), outcome.end());
  if (!r.ok() || plane > 1 || failed > 1) return std::nullopt;
  rec.plane = plane == 0 ? nas::Plane::kControl : nas::Plane::kData;
  rec.failed = failed == 1;
  return rec;
}

Bytes Dataset::serialize() const {
  Writer w;
  w.str("SEEDTRC1");
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& r : records) r.encode(w);
  return std::move(w).take();
}

std::optional<Dataset> Dataset::deserialize(BytesView data) {
  Reader r(data);
  const BytesView magic = r.raw(8);
  if (!r.ok() || to_string(magic) != "SEEDTRC1") return std::nullopt;
  const std::uint32_t n = r.u32();
  Dataset ds;
  ds.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto rec = ProcedureRecord::decode(r);
    if (!rec) return std::nullopt;
    ds.records.push_back(std::move(*rec));
  }
  if (!r.done()) return std::nullopt;
  return ds;
}

Dataset generate_dataset(sim::Rng& rng, std::size_t procedures) {
  std::vector<double> weights;
  for (const auto& m : mixture()) weights.push_back(m.weight);

  Dataset ds;
  ds.records.reserve(procedures);
  const double window_s = kWindowDays * 86400.0;
  for (std::size_t i = 0; i < procedures; ++i) {
    ProcedureRecord rec;
    rec.timestamp_s = rng.uniform(0.0, window_s);
    rec.carrier =
        static_cast<std::uint8_t>(rng.uniform_int(0, kCarriers - 1));
    rec.device_model =
        static_cast<std::uint8_t>(rng.uniform_int(0, kDeviceModels - 1));
    rec.failed = rng.chance(kFailureRatio);
    if (rec.failed) {
      const auto& m = mixture()[rng.weighted_index(weights)];
      rec.plane = m.plane;
      rec.outcome_message = make_outcome(rng, m.plane, true, m.cause);
    } else {
      rec.plane = rng.chance(0.55) ? nas::Plane::kControl : nas::Plane::kData;
      rec.outcome_message = make_outcome(rng, rec.plane, false, 0);
    }
    ds.records.push_back(std::move(rec));
  }
  std::sort(ds.records.begin(), ds.records.end(),
            [](const ProcedureRecord& a, const ProcedureRecord& b) {
              return a.timestamp_s < b.timestamp_s;
            });
  return ds;
}

AnalysisResult analyze(const Dataset& dataset) {
  AnalysisResult out;
  out.procedures = dataset.records.size();
  std::map<std::pair<nas::Plane, std::uint8_t>, std::size_t> counts;
  for (const auto& rec : dataset.records) {
    nas::DecodeError err;
    const auto msg = nas::decode_message(rec.outcome_message, &err);
    if (!msg) {
      ++out.undecodable;
      continue;
    }
    const auto cause = nas::extract_cause(*msg);
    if (!cause) continue;  // accept message: successful procedure
    ++out.failures;
    if (cause->first == nas::Plane::kControl) {
      ++out.control_plane_failures;
    } else {
      ++out.data_plane_failures;
    }
    ++counts[*cause];
  }
  for (const auto& [key, n] : counts) {
    out.causes.push_back(CauseCount{
        key.first, key.second, n,
        out.failures == 0 ? 0.0 : static_cast<double>(n) / out.failures});
  }
  std::sort(out.causes.begin(), out.causes.end(),
            [](const CauseCount& a, const CauseCount& b) {
              return a.count > b.count;
            });
  return out;
}

std::vector<CauseCount> AnalysisResult::top_causes(nas::Plane plane,
                                                   std::size_t k) const {
  std::vector<CauseCount> out;
  for (const auto& c : causes) {
    if (c.plane == plane) {
      out.push_back(c);
      if (out.size() == k) break;
    }
  }
  return out;
}

}  // namespace seed::trace
