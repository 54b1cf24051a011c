// Micro-benchmarks (google-benchmark) for the NAS codec and SEED payload
// paths: message encode/decode, cause lookup (the SIM's per-diagnosis
// table walk), DiagInfo encode + protect + AUTN fragmentation, and
// failure-report DNN packing. Each path reuses warm buffers the way the
// modem and core do. Crypto throughput per message size lives in
// bench_crypto.
#include <benchmark/benchmark.h>

#include <array>
#include <fstream>
#include <vector>

#include "crypto/security_context.h"
#include "obs/prof.h"
#include "nas/causes.h"
#include "nas/messages.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"

namespace {

using namespace seed;

nas::NasMessage sample_pdu_accept() {
  nas::PduSessionEstablishmentAccept m;
  m.hdr = {1, 7};
  m.ue_addr = nas::Ipv4::from_string("10.45.0.2");
  m.dns_addr = nas::Ipv4::from_string("10.45.0.1");
  m.qos = nas::QosRule{9, 100000, 500000};
  nas::Tft t;
  t.op = nas::Tft::Operation::kCreateNew;
  nas::PacketFilter f;
  f.id = 1;
  f.protocol = nas::IpProtocol::kTcp;
  f.remote_port_lo = 443;
  f.remote_port_hi = 443;
  t.filters = {f};
  m.tft = t;
  return m;
}

void BM_EncodePduAccept(benchmark::State& state) {
  const nas::NasMessage msg = sample_pdu_accept();
  Bytes scratch;
  for (auto _ : state) {
    const BytesView wire = nas::encode_message_into(msg, scratch);
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EncodePduAccept);

void BM_DecodePduAccept(benchmark::State& state) {
  Bytes wire;
  nas::encode_message_into(sample_pdu_accept(), wire);
  nas::DecodeError err;
  for (auto _ : state) {
    auto msg = nas::decode_message(wire, &err);
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_DecodePduAccept);

void BM_CauseLookup(benchmark::State& state) {
  std::uint8_t code = 0;
  for (auto _ : state) {
    const nas::CauseInfo* info =
        nas::find_cause(nas::Plane::kData, static_cast<std::uint8_t>(
                                                27 + (code++ % 7)));
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_CauseLookup);

void BM_DiagInfoDownlinkPath(benchmark::State& state) {
  crypto::Key128 k{};
  crypto::SecurityContext ctx(k, 7);
  proto::DiagInfo d;
  d.kind = proto::AssistKind::kCauseWithConfig;
  d.plane = nas::Plane::kData;
  d.cause = 27;
  Writer w;
  nas::Dnn("internet.v2").encode(w);
  d.config = proto::ConfigPayload{nas::ConfigKind::kSuggestedDnn, w.bytes()};
  Bytes plain, frame;
  std::vector<std::array<std::uint8_t, 16>> frags;
  for (auto _ : state) {
    Writer pw(std::move(plain));
    d.encode_into(pw);
    plain = std::move(pw).take();
    ctx.protect_into(plain, crypto::Direction::kDownlink, frame);
    proto::AutnCodec::fragment_into(frame, frags);
    benchmark::DoNotOptimize(frags.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DiagInfoDownlinkPath);

void BM_FailureReportUplinkPath(benchmark::State& state) {
  crypto::Key128 k{};
  crypto::SecurityContext ctx(k, 7);
  proto::FailureReport r;
  r.type = proto::FailureType::kTcp;
  r.addr = nas::Ipv4::from_string("203.0.113.10");
  r.port = 443;
  Bytes plain, frame;
  for (auto _ : state) {
    Writer pw(std::move(plain));
    r.encode_into(pw);
    plain = std::move(pw).take();
    ctx.protect_into(plain, crypto::Direction::kUplink, frame);
    auto dnns = proto::DiagDnnCodec::pack(frame);
    benchmark::DoNotOptimize(dnns);
  }
}
BENCHMARK(BM_FailureReportUplinkPath);

}  // namespace

// Custom main: run with the hot-path profiler armed and dump the cost
// attribution next to the timings. Iteration counts are adaptive, so the
// dump is NOT deterministic — it is the gitignored *_full flavour (times
// included), never a committed artifact. Reported per-op timings include
// the (measured-as-tiny) enabled-profiler overhead.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  auto& prof = seed::obs::Profiler::instance();
  prof.clear();
  prof.enable(true);
  benchmark::RunSpecifiedBenchmarks();
  prof.enable(false);
  std::ofstream os("BENCH_profile_micro_codec_full.json", std::ios::trunc);
  prof.dump_json(os, "micro_codec", /*include_times=*/true);
  prof.clear();
  benchmark::Shutdown();
  return 0;
}
