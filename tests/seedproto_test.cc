#include <gtest/gtest.h>

#include "crypto/security_context.h"
#include "nas/messages.h"
#include "seedproto/diag_payload.h"
#include "seedproto/failure_report.h"
#include "simcore/rng.h"
#include "wire_helpers.h"

namespace seed::proto {
namespace {

using crypto::Direction;
using crypto::Key128;
using crypto::SecurityContext;

Key128 test_key() {
  Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i * 7);
  return k;
}

// ----------------------------------------------------------------- DFlag

TEST(DFlag, Detection) {
  EXPECT_TRUE(is_dflag(kDFlag));
  auto almost = kDFlag;
  almost[7] = 0xfe;
  EXPECT_FALSE(is_dflag(almost));
  std::array<std::uint8_t, 16> zero{};
  EXPECT_FALSE(is_dflag(zero));
}

// -------------------------------------------------------------- DiagInfo

TEST(DiagInfo, StandardCauseRoundTrip) {
  DiagInfo d;
  d.kind = AssistKind::kStandardCause;
  d.plane = nas::Plane::kControl;
  d.cause = 9;
  const auto out = DiagInfo::decode(test::payload_bytes(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, d);
}

TEST(DiagInfo, CauseWithConfigRoundTrip) {
  // Infra attaches the up-to-date DNN for cause #27 (Appendix A).
  nas::Dnn dnn("internet.v2");
  Writer w;
  dnn.encode(w);
  DiagInfo d;
  d.kind = AssistKind::kCauseWithConfig;
  d.plane = nas::Plane::kData;
  d.cause = 27;
  d.config = ConfigPayload{nas::ConfigKind::kSuggestedDnn, w.bytes()};
  const auto out = DiagInfo::decode(test::payload_bytes(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, d);
  // The embedded config decodes back to the DNN.
  Reader r(out->config->value);
  const auto got = nas::Dnn::decode(r);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, dnn);
}

TEST(DiagInfo, SuggestedActionRoundTrip) {
  DiagInfo d;
  d.kind = AssistKind::kSuggestedAction;
  d.plane = nas::Plane::kData;
  d.cause = 201;  // customized code
  d.suggested = ResetAction::kB3DPlaneReset;
  const auto out = DiagInfo::decode(test::payload_bytes(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->suggested, ResetAction::kB3DPlaneReset);
}

TEST(DiagInfo, CongestionWarningRoundTrip) {
  DiagInfo d;
  d.kind = AssistKind::kCongestionWarning;
  d.cause = 22;
  d.congestion_wait_s = 45;
  const auto out = DiagInfo::decode(test::payload_bytes(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->congestion_wait_s, 45);
}

TEST(DiagInfo, RejectsBadKindPlaneFlags) {
  DiagInfo d;
  Bytes wire = test::payload_bytes(d);
  wire[0] = 0;  // kind 0 invalid
  EXPECT_FALSE(DiagInfo::decode(wire).has_value());
  wire = test::payload_bytes(d);
  wire[1] = 2;  // plane invalid
  EXPECT_FALSE(DiagInfo::decode(wire).has_value());
  wire = test::payload_bytes(d);
  wire[3] = 0x80;  // unknown flag
  EXPECT_FALSE(DiagInfo::decode(wire).has_value());
  wire = test::payload_bytes(d);
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(DiagInfo::decode(wire).has_value());
  EXPECT_FALSE(DiagInfo::decode(BytesView{}).has_value());
}

TEST(DiagInfo, ResetActionNames) {
  EXPECT_EQ(reset_action_name(ResetAction::kA1ProfileReload),
            "A1:sim-profile-reload");
  EXPECT_EQ(reset_action_name(ResetAction::kB1ModemReset), "B1:modem-reset");
}

// ------------------------------------------------------------- AutnCodec

TEST(AutnCodec, SingleFragmentFitsSmallFrame) {
  const Bytes frame = from_hex("0102030405060708090a0b0c0d0e");  // 14 bytes
  const auto frags = test::autn_fragments(frame);
  ASSERT_EQ(frags.size(), 1u);
  AutnCodec::Reassembler re;
  const auto out = test::owned(re.feed_view(frags[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(AutnCodec, EmptyFrame) {
  const auto frags = test::autn_fragments({});
  ASSERT_EQ(frags.size(), 1u);
  AutnCodec::Reassembler re;
  const auto out = test::owned(re.feed_view(frags[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

class AutnSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AutnSizeTest, RoundTripAllSizes) {
  sim::Rng rng(GetParam());
  Bytes frame(GetParam());
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
  const auto frags = test::autn_fragments(frame);
  AutnCodec::Reassembler re;
  std::optional<Bytes> out;
  for (const auto& f : frags) {
    EXPECT_FALSE(out.has_value());
    out = test::owned(re.feed_view(f));
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AutnSizeTest,
                         ::testing::Values(1, 13, 14, 15, 29, 30, 44, 100,
                                           223, 224));

TEST(AutnCodec, RejectsOversizedFrame) {
  Bytes big(225);
  EXPECT_THROW(test::autn_fragments(big), std::length_error);
}

TEST(AutnCodec, OutOfOrderResets) {
  Bytes frame(60, 0xab);
  const auto frags = test::autn_fragments(frame);
  ASSERT_GE(frags.size(), 3u);
  AutnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(frags[0]).has_value());
  EXPECT_FALSE(re.feed_view(frags[2]).has_value());  // skipped frag 1 -> reset
  EXPECT_EQ(re.pending_fragments(), 0u);
  // A clean restart still works.
  std::optional<Bytes> out;
  for (const auto& f : frags) out = test::owned(re.feed_view(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(AutnCodec, MidStreamStartRejected) {
  Bytes frame(60, 0xcd);
  const auto frags = test::autn_fragments(frame);
  AutnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(frags[1]).has_value());  // not seq 0
  EXPECT_EQ(re.pending_fragments(), 0u);
}

TEST(AutnCodec, GarbageHeaderRejected) {
  AutnCodec::Reassembler re;
  std::array<std::uint8_t, 16> bad{};
  bad[0] = 0x00;  // total = 0
  EXPECT_FALSE(re.feed_view(bad).has_value());
  bad[0] = 0x52;  // seq 5 of total 2
  EXPECT_FALSE(re.feed_view(bad).has_value());
}

// -------------------------------------------------- end-to-end downlink

TEST(DownlinkChannel, ProtectFragmentAuthRequestRoundTrip) {
  // Infra side: DiagInfo -> protect -> fragment -> Auth Requests.
  SecurityContext infra(test_key(), 7);
  SecurityContext sim(test_key(), 7);

  nas::Dnn dnn("internet.fixed");
  Writer cw;
  dnn.encode(cw);
  DiagInfo d;
  d.kind = AssistKind::kCauseWithConfig;
  d.plane = nas::Plane::kData;
  d.cause = 27;
  d.config = ConfigPayload{nas::ConfigKind::kSuggestedDnn, cw.bytes()};

  const Bytes frame =
      test::sealed(infra, test::payload_bytes(d), Direction::kDownlink);
  const auto frags = test::autn_fragments(frame);

  // Each fragment travels inside a standards-compliant Auth Request.
  AutnCodec::Reassembler re;
  std::optional<Bytes> rx_frame;
  for (const auto& frag : frags) {
    nas::AuthenticationRequest req;
    req.rand = kDFlag;
    req.autn = frag;
    const Bytes wire = test::nas_wire(nas::NasMessage(req));
    const auto msg = test::nas_decode(wire);
    ASSERT_TRUE(msg.has_value());
    const auto& got = std::get<nas::AuthenticationRequest>(*msg);
    ASSERT_TRUE(is_dflag(got.rand));  // SIM recognizes the DFlag
    rx_frame = test::owned(re.feed_view(got.autn));
  }
  ASSERT_TRUE(rx_frame.has_value());
  Bytes plain;
  ASSERT_TRUE(sim.unprotect_into(*rx_frame, Direction::kDownlink, plain));
  const auto decoded = DiagInfo::decode(plain);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, d);
}

TEST(DownlinkChannel, TamperedFragmentFailsMac) {
  SecurityContext infra(test_key(), 7);
  SecurityContext sim(test_key(), 7);
  DiagInfo d;
  d.cause = 22;
  Bytes frame =
      test::sealed(infra, test::payload_bytes(d), Direction::kDownlink);
  auto frags = test::autn_fragments(frame);
  frags[0][5] ^= 0x40;  // adversary flips a payload bit
  AutnCodec::Reassembler re;
  std::optional<Bytes> rx;
  for (const auto& f : frags) rx = test::owned(re.feed_view(f));
  ASSERT_TRUE(rx.has_value());
  Bytes plain;
  EXPECT_FALSE(sim.unprotect_into(*rx, Direction::kDownlink, plain));
}

// ---------------------------------------------------------- FailureReport

TEST(FailureReport, TcpRoundTrip) {
  FailureReport f;
  f.type = FailureType::kTcp;
  f.direction = TrafficDirection::kUplink;
  f.addr = nas::Ipv4::from_string("93.184.216.34");
  f.port = 443;
  const auto out = FailureReport::decode(test::payload_bytes(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, f);
}

TEST(FailureReport, DnsRoundTripWithDomain) {
  FailureReport f;
  f.type = FailureType::kDns;
  f.direction = TrafficDirection::kBoth;
  f.domain = "connectivitycheck.gstatic.com";
  const auto out = FailureReport::decode(test::payload_bytes(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->domain, f.domain);
}

TEST(FailureReport, UdpRoundTrip) {
  FailureReport f;
  f.type = FailureType::kUdp;
  f.direction = TrafficDirection::kDownlink;
  f.addr = nas::Ipv4::from_string("10.0.0.9");
  f.port = 3478;
  const auto out = FailureReport::decode(test::payload_bytes(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, f);
}

TEST(FailureReport, RejectsMalformed) {
  FailureReport f;
  Bytes wire = test::payload_bytes(f);
  wire[0] = 9;  // bad type
  EXPECT_FALSE(FailureReport::decode(wire).has_value());
  wire = test::payload_bytes(f);
  wire[1] = 0;  // bad direction
  EXPECT_FALSE(FailureReport::decode(wire).has_value());
  EXPECT_FALSE(FailureReport::decode(BytesView{}).has_value());
}

// ------------------------------------------------------------ DiagDnn

TEST(DiagDnn, IsDiagDetection) {
  EXPECT_FALSE(DiagDnnCodec::is_diag(nas::Dnn("internet")));
  EXPECT_FALSE(DiagDnnCodec::is_diag(nas::Dnn()));
  const auto dnns = DiagDnnCodec::pack(from_hex("0011"));
  ASSERT_EQ(dnns.size(), 1u);
  EXPECT_TRUE(DiagDnnCodec::is_diag(dnns[0]));
}

TEST(DiagDnn, EveryPackedDnnWithinWireBudget) {
  sim::Rng rng(99);
  for (std::size_t size : {0u, 1u, 50u, 92u, 93u, 200u, 500u, 1000u}) {
    Bytes frame(size);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    const auto dnns = DiagDnnCodec::pack(frame);
    for (const auto& d : dnns) {
      EXPECT_LE(d.wire_size(), nas::Dnn::kMaxWireSize);
      EXPECT_TRUE(DiagDnnCodec::is_diag(d));
    }
  }
}

class DiagDnnSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DiagDnnSizeTest, RoundTrip) {
  sim::Rng rng(GetParam() + 5);
  Bytes frame(GetParam());
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
  const auto dnns = DiagDnnCodec::pack(frame);
  DiagDnnCodec::Reassembler re;
  std::optional<Bytes> out;
  for (const auto& d : dnns) {
    EXPECT_FALSE(out.has_value());
    out = test::owned(re.feed_view(d));
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DiagDnnSizeTest,
                         ::testing::Values(0, 1, 63, 64, 91, 92, 93, 184, 200,
                                           500, 1380));

TEST(DiagDnn, RejectsOversized) {
  Bytes huge(15 * 92 + 1);
  EXPECT_THROW(DiagDnnCodec::pack(huge), std::length_error);
}

TEST(DiagDnn, NonDiagDnnResetsReassembler) {
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(nas::Dnn("internet")).has_value());
}

// ---------------- impaired-channel hardening (chaos layer regressions)

TEST(DiagDnn, DuplicatedFragmentIgnoredMidTransfer) {
  Bytes frame(200, 0x5a);
  const auto dnns = DiagDnnCodec::pack(frame);
  ASSERT_GE(dnns.size(), 3u);
  DiagDnnCodec::Reassembler re;
  // Every fragment delivered twice: the duplicate must neither advance
  // nor reset the transfer.
  std::optional<Bytes> out;
  for (const auto& d : dnns) {
    out = test::owned(re.feed_view(d));
    if (out) break;
    EXPECT_FALSE(re.feed_view(d).has_value());
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(DiagDnn, ReorderedFragmentResetsAndRecovers) {
  Bytes frame(200, 0xa5);
  const auto dnns = DiagDnnCodec::pack(frame);
  ASSERT_GE(dnns.size(), 3u);
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(dnns[0]).has_value());
  EXPECT_FALSE(re.feed_view(dnns[2]).has_value());  // skipped frag 1 -> reset
  // A clean restart still succeeds.
  std::optional<Bytes> out;
  for (const auto& d : dnns) out = test::owned(re.feed_view(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(DiagDnn, TruncatedBareHeaderFragmentRejected) {
  Bytes frame(200, 0x3c);
  const auto dnns = DiagDnnCodec::pack(frame);
  ASSERT_GE(dnns.size(), 3u);
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(dnns[0]).has_value());
  // Fragment 1 with its payload labels stripped: a truncated frame that
  // must reset the transfer instead of mis-assembling a short buffer.
  nas::Dnn bare = nas::Dnn::from_labels({dnns[1].labels()[0]});
  EXPECT_FALSE(re.feed_view(bare).has_value());
  // The transfer restarts from fragment 0 and completes.
  std::optional<Bytes> out;
  for (const auto& d : dnns) out = test::owned(re.feed_view(d));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(AutnCodec, DuplicatedFragmentIgnoredMidTransfer) {
  Bytes frame(100, 0x77);
  const auto frags = test::autn_fragments(frame);
  ASSERT_GE(frags.size(), 3u);
  AutnCodec::Reassembler re;
  std::optional<Bytes> out;
  for (const auto& f : frags) {
    out = test::owned(re.feed_view(f));
    if (out) break;
    EXPECT_FALSE(re.feed_view(f).has_value());  // retransmit of the same frag
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

// ---------------------------------------------------- end-to-end uplink

TEST(UplinkChannel, ReportThroughPduSessionRequests) {
  SecurityContext sim(test_key(), 7);
  SecurityContext infra(test_key(), 7);

  FailureReport report;
  report.type = FailureType::kUdp;
  report.direction = TrafficDirection::kBoth;
  report.addr = nas::Ipv4::from_string("198.51.100.7");
  report.port = 5004;

  const Bytes frame =
      test::sealed(sim, test::payload_bytes(report), Direction::kUplink);
  const auto dnns = DiagDnnCodec::pack(frame);

  DiagDnnCodec::Reassembler re;
  std::optional<Bytes> rx;
  std::uint8_t pti = 1;
  for (const auto& dnn : dnns) {
    nas::PduSessionEstablishmentRequest req;
    req.hdr = {9, pti++};
    req.dnn = dnn;
    const Bytes wire = test::nas_wire(nas::NasMessage(req));
    const auto msg = test::nas_decode(wire);
    ASSERT_TRUE(msg.has_value());
    const auto& got = std::get<nas::PduSessionEstablishmentRequest>(*msg);
    ASSERT_TRUE(DiagDnnCodec::is_diag(got.dnn));
    rx = test::owned(re.feed_view(got.dnn));
  }
  ASSERT_TRUE(rx.has_value());
  Bytes plain;
  ASSERT_TRUE(infra.unprotect_into(*rx, Direction::kUplink, plain));
  const auto decoded = FailureReport::decode(plain);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, report);
}

TEST(UplinkChannel, ReplayedReportRejected) {
  SecurityContext sim(test_key(), 7);
  SecurityContext infra(test_key(), 7);
  FailureReport report;
  report.type = FailureType::kDns;
  report.domain = "ldns.carrier.net";
  const Bytes frame =
      test::sealed(sim, test::payload_bytes(report), Direction::kUplink);
  Bytes plain;
  EXPECT_TRUE(infra.unprotect_into(frame, Direction::kUplink, plain));
  // Adversary resends the same DIAG DNNs: counter check kills it.
  EXPECT_FALSE(infra.unprotect_into(frame, Direction::kUplink, plain));
}

// ----------------------- decoder-hardening audit regressions (semantic
// chaos: forged headers, inconsistent declared lengths, oversized labels)

TEST(AutnCodec, InconsistentDeclaredLengthRejected) {
  AutnCodec::Reassembler re;
  std::array<std::uint8_t, 16> frag0{};
  // A 3-fragment transfer only exists for frames too long for 2 fragments
  // (> 14 + 15 = 29 bytes); a forged header declaring 20 must be rejected
  // up front rather than splicing a short frame out of 3 fragments' bytes.
  frag0[0] = 0x03;  // seq 0, total 3
  frag0[1] = 20;
  EXPECT_FALSE(re.feed_view(frag0).has_value());
  EXPECT_TRUE(re.last_rejected());
  EXPECT_EQ(re.pending_fragments(), 0u);
  // ...and a declared length beyond the fragment count's capacity.
  frag0[0] = 0x02;  // seq 0, total 2 -> capacity 29
  frag0[1] = 30;
  EXPECT_FALSE(re.feed_view(frag0).has_value());
  EXPECT_TRUE(re.last_rejected());
  // The boundary values themselves still start a transfer.
  frag0[0] = 0x02;
  frag0[1] = 30 - 1;
  EXPECT_FALSE(re.feed_view(frag0).has_value());  // mid-transfer progress
  EXPECT_FALSE(re.last_rejected());
}

TEST(AutnCodec, LastRejectedDistinguishesBenignNullopt) {
  Bytes frame(60, 0x5a);
  const auto frags = test::autn_fragments(frame);
  ASSERT_GE(frags.size(), 3u);
  AutnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(frags[0]).has_value());  // progress, not a reject
  EXPECT_FALSE(re.last_rejected());
  EXPECT_FALSE(re.feed_view(frags[0]).has_value());  // duplicate of last
  EXPECT_FALSE(re.last_rejected());
  EXPECT_FALSE(re.feed_view(frags[2]).has_value());  // reorder -> reject
  EXPECT_TRUE(re.last_rejected());
}

TEST(AutnCodec, FinalFragmentRetransmitAfterCompletionIsBenign) {
  Bytes frame(60, 0x77);
  const auto frags = test::autn_fragments(frame);
  ASSERT_GE(frags.size(), 2u);
  AutnCodec::Reassembler re;
  std::optional<Bytes> out;
  for (const auto& f : frags) out = test::owned(re.feed_view(f));
  ASSERT_TRUE(out.has_value());
  // The synch-failure ACK of the final fragment was lost; the core
  // retransmits it. Not malformed — and the next transfer still works.
  EXPECT_FALSE(re.feed_view(frags.back()).has_value());
  EXPECT_FALSE(re.last_rejected());
  out.reset();
  for (const auto& f : frags) out = test::owned(re.feed_view(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
}

TEST(DiagDnn, OversizedPayloadLabelRejected) {
  // Forged fragment whose payload label exceeds the 63-byte label cap
  // pack() guarantees; unchecked it would bloat the reassembled frame.
  const Bytes head = {'D', 'I', 'A', 'G', 0x01};  // seq 0, total 1
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(
      re.feed_view(nas::Dnn::from_labels({head, Bytes(64, 0xaa)})).has_value());
  EXPECT_TRUE(re.last_rejected());
}

TEST(DiagDnn, OversizedFragmentPayloadRejected) {
  // Two max-size labels sum past the 92-byte per-DNN payload budget.
  const Bytes head = {'D', 'I', 'A', 'G', 0x01};
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(
      re.feed_view(
            nas::Dnn::from_labels({head, Bytes(63, 0x01), Bytes(63, 0x02)}))
          .has_value());
  EXPECT_TRUE(re.last_rejected());
}

TEST(DiagDnn, LastRejectedDistinguishesBenignNullopt) {
  Bytes frame(150, 0x3c);
  const auto dnns = DiagDnnCodec::pack(frame);
  ASSERT_EQ(dnns.size(), 2u);
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(dnns[0]).has_value());  // progress
  EXPECT_FALSE(re.last_rejected());
  EXPECT_FALSE(re.feed_view(dnns[0]).has_value());  // duplicate of last
  EXPECT_FALSE(re.last_rejected());
  EXPECT_FALSE(re.feed_view(nas::Dnn("internet")).has_value());  // non-diag
  EXPECT_TRUE(re.last_rejected());
}

TEST(DiagDnn, FinalFragmentRetransmitAfterCompletionIsBenign) {
  Bytes frame(150, 0x3c);
  const auto dnns = DiagDnnCodec::pack(frame);
  ASSERT_EQ(dnns.size(), 2u);
  DiagDnnCodec::Reassembler re;
  EXPECT_FALSE(re.feed_view(dnns[0]).has_value());
  const auto out = test::owned(re.feed_view(dnns[1]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  // Retransmit of the final DNN after the reject-ACK was lost: benign.
  EXPECT_FALSE(re.feed_view(dnns[1]).has_value());
  EXPECT_FALSE(re.last_rejected());
  // The next clean transfer still assembles.
  std::optional<Bytes> redo;
  for (const auto& d : dnns) redo = test::owned(re.feed_view(d));
  ASSERT_TRUE(redo.has_value());
  EXPECT_EQ(*redo, frame);
}

}  // namespace
}  // namespace seed::proto
