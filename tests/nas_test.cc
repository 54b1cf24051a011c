#include <gtest/gtest.h>

#include "nas/causes.h"
#include "nas/ie.h"
#include "nas/messages.h"
#include "simcore/rng.h"
#include "wire_helpers.h"

namespace seed::nas {
namespace {

// ------------------------------------------------------------- registry

TEST(Causes, RegistrySizesMatchPaperClaim) {
  // Paper §4.3.1: "5G defines 80+ failure codes".
  EXPECT_GE(all_mm_causes().size() + all_sm_causes().size(), 79u);
}

TEST(Causes, LookupByEnum) {
  const CauseInfo* c = find_cause(MmCause::kUeIdentityCannotBeDerived);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->code, 9);
  EXPECT_EQ(c->plane, Plane::kControl);
  EXPECT_EQ(c->category, CauseCategory::kIdentification);
}

TEST(Causes, UnknownCodeReturnsNull) {
  EXPECT_EQ(find_cause(Plane::kControl, 200), nullptr);
  EXPECT_EQ(find_cause(Plane::kData, 0), nullptr);
  EXPECT_EQ(cause_name(Plane::kData, 250), "unknown-cause");
}

TEST(Causes, AppendixAControlPlaneConfigCauses) {
  // Paper Appendix A control-plane rows.
  EXPECT_EQ(config_kind_for(Plane::kControl, 26), ConfigKind::kSupportedRat);
  EXPECT_EQ(config_kind_for(Plane::kControl, 27), ConfigKind::kSupportedRat);
  EXPECT_EQ(config_kind_for(Plane::kControl, 31), ConfigKind::kSupportedRat);
  EXPECT_EQ(config_kind_for(Plane::kControl, 62),
            ConfigKind::kSuggestedSnssai);
  EXPECT_EQ(config_kind_for(Plane::kControl, 72), ConfigKind::kSupportedRat);
  EXPECT_EQ(config_kind_for(Plane::kControl, 91), ConfigKind::kSuggestedDnn);
  EXPECT_EQ(config_kind_for(Plane::kControl, 95),
            ConfigKind::kInvalidOrMissedConfig);
  EXPECT_EQ(config_kind_for(Plane::kControl, 96),
            ConfigKind::kInvalidOrMissedConfig);
  EXPECT_EQ(config_kind_for(Plane::kControl, 100),
            ConfigKind::kInvalidOrMissedConfig);
}

TEST(Causes, AppendixADataPlaneConfigCauses) {
  EXPECT_EQ(config_kind_for(Plane::kData, 27), ConfigKind::kSuggestedDnn);
  EXPECT_EQ(config_kind_for(Plane::kData, 28),
            ConfigKind::kSuggestedSessionType);
  EXPECT_EQ(config_kind_for(Plane::kData, 33), ConfigKind::kSuggestedDnn);
  EXPECT_EQ(config_kind_for(Plane::kData, 39), ConfigKind::kSuggestedDnn);
  EXPECT_EQ(config_kind_for(Plane::kData, 41), ConfigKind::kSuggestedTft);
  EXPECT_EQ(config_kind_for(Plane::kData, 42), ConfigKind::kSuggestedTft);
  EXPECT_EQ(config_kind_for(Plane::kData, 43),
            ConfigKind::kActivatedPduSession);
  EXPECT_EQ(config_kind_for(Plane::kData, 44),
            ConfigKind::kSuggestedPacketFilter);
  EXPECT_EQ(config_kind_for(Plane::kData, 54),
            ConfigKind::kActivatedPduSession);
  EXPECT_EQ(config_kind_for(Plane::kData, 59), ConfigKind::kSuggested5qi);
  EXPECT_EQ(config_kind_for(Plane::kData, 70), ConfigKind::kSuggestedDnn);
}

TEST(Causes, UserActionCausesAreNotConfigRelated) {
  for (const auto& table : {all_mm_causes(), all_sm_causes()}) {
    for (const auto& c : table) {
      if (c.user_action_required) {
        EXPECT_EQ(c.config, ConfigKind::kNone) << c.name;
      }
    }
  }
}

TEST(Causes, PlaneFieldsConsistent) {
  for (const auto& c : all_mm_causes()) EXPECT_EQ(c.plane, Plane::kControl);
  for (const auto& c : all_sm_causes()) EXPECT_EQ(c.plane, Plane::kData);
}

TEST(Causes, NoDuplicateCodesWithinPlane) {
  for (const auto& table : {all_mm_causes(), all_sm_causes()}) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      for (std::size_t j = i + 1; j < table.size(); ++j) {
        EXPECT_NE(table[i].code, table[j].code)
            << table[i].name << " vs " << table[j].name;
      }
    }
  }
}

TEST(Causes, RegistryFitsSimStorage) {
  // Paper: SIM storage 32-128 KB suffices for all cause codes.
  EXPECT_LT(registry_storage_bytes(), 32u * 1024);
}

TEST(Causes, Table1CausesPresent) {
  // Every cause named in paper Table 1 must be in the registry.
  EXPECT_NE(find_cause(MmCause::kUeIdentityCannotBeDerived), nullptr);
  EXPECT_NE(find_cause(MmCause::kNoSuitableCellsInTrackingArea), nullptr);
  EXPECT_NE(find_cause(MmCause::kPlmnNotAllowed), nullptr);
  EXPECT_NE(find_cause(MmCause::kNoEpsBearerContextActivated), nullptr);
  EXPECT_NE(find_cause(MmCause::kMessageTypeNotCompatibleWithState), nullptr);
  EXPECT_NE(find_cause(SmCause::kServiceOptionNotSubscribed), nullptr);
  EXPECT_NE(find_cause(SmCause::kInvalidMandatoryInformation), nullptr);
  EXPECT_NE(find_cause(SmCause::kUserAuthenticationFailed), nullptr);
  EXPECT_NE(find_cause(SmCause::kRequestRejectedUnspecified), nullptr);
  EXPECT_NE(find_cause(SmCause::kInsufficientResources), nullptr);
}

// ------------------------------------------------------------------- IEs

template <typename T>
T roundtrip_ie(const T& in) {
  Writer w;
  in.encode(w);
  Reader r(w.bytes());
  const auto out = T::decode(r);
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(r.done());
  return out.value_or(T{});
}

TEST(Ie, PlmnRoundTrip) {
  const PlmnId p{310, 260};
  EXPECT_EQ(roundtrip_ie(p), p);
  EXPECT_EQ(p.to_string(), "310-260");
}

TEST(Ie, PlmnRejectsOutOfRange) {
  Writer w;
  w.u16(1000);  // mcc > 999
  w.u16(1);
  Reader r(w.bytes());
  EXPECT_FALSE(PlmnId::decode(r).has_value());
}

TEST(Ie, TaiGutiSuciRoundTrip) {
  const Tai tai{{310, 260}, 0x00abcd};
  EXPECT_EQ(roundtrip_ie(tai), tai);
  const Guti guti{{460, 0}, 12, 0x3ff, 0xdeadbeef};
  EXPECT_EQ(roundtrip_ie(guti), guti);
  const Suci suci{{310, 260}, "0123456789"};
  EXPECT_EQ(roundtrip_ie(suci), suci);
}

TEST(Ie, SuciRejectsNonDigits) {
  Writer w;
  PlmnId{310, 260}.encode(w);
  w.lv8(to_bytes("12a4"));
  Reader r(w.bytes());
  EXPECT_FALSE(Suci::decode(r).has_value());
}

TEST(Ie, MobileIdentityVariants) {
  MobileIdentity none;
  EXPECT_EQ(roundtrip_ie(none), none);
  MobileIdentity s;
  s.kind = MobileIdentity::Kind::kSuci;
  s.suci = {{310, 260}, "999"};
  EXPECT_EQ(roundtrip_ie(s), s);
  MobileIdentity g;
  g.kind = MobileIdentity::Kind::kGuti;
  g.guti = {{310, 260}, 1, 2, 3};
  EXPECT_EQ(roundtrip_ie(g), g);
}

TEST(Ie, SNssaiWithAndWithoutSd) {
  const SNssai plain{1, std::nullopt};
  EXPECT_EQ(roundtrip_ie(plain), plain);
  const SNssai with_sd{2, 0x00abcdef & 0xffffff};
  EXPECT_EQ(roundtrip_ie(with_sd), with_sd);
}

TEST(Ie, DnnFromDotted) {
  const Dnn d("ims.carrier.com");
  ASSERT_EQ(d.labels().size(), 3u);
  EXPECT_EQ(d.to_string(), "ims.carrier.com");
  EXPECT_EQ(d.wire_size(), 3 + 3 + 7 + 3);
  EXPECT_EQ(roundtrip_ie(d), d);
}

TEST(Ie, DnnWithBinaryLabels) {
  const Dnn d = Dnn::from_labels({to_bytes("DIAG"), Bytes{0x00, 0xff, 0x80}});
  EXPECT_EQ(roundtrip_ie(d), d);
  EXPECT_EQ(d.to_string(), "DIAG.0x00ff80");  // hex escape for display
}

TEST(Ie, DnnEmpty) {
  const Dnn d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(roundtrip_ie(d), d);
}

TEST(Ie, Ipv4Parse) {
  const Ipv4 ip = Ipv4::from_string("10.20.30.40");
  EXPECT_EQ(ip.to_string(), "10.20.30.40");
  EXPECT_THROW(Ipv4::from_string("10.20.30"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("10.20.30.400"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(Ipv4::from_string("1.2.3.4.5"), std::invalid_argument);
}

TEST(Ie, PacketFilterRoundTrip) {
  PacketFilter f;
  f.id = 3;
  f.direction = PacketFilter::Direction::kDownlink;
  f.precedence = 10;
  f.protocol = IpProtocol::kUdp;
  f.remote_addr = Ipv4::from_string("8.8.8.8");
  f.remote_port_lo = 53;
  f.remote_port_hi = 53;
  EXPECT_EQ(roundtrip_ie(f), f);
}

TEST(Ie, PacketFilterMinimal) {
  PacketFilter f;
  f.id = 1;
  EXPECT_EQ(roundtrip_ie(f), f);
}

TEST(Ie, PacketFilterRejectsBadPortRange) {
  PacketFilter f;
  f.id = 1;
  f.remote_port_lo = 100;
  f.remote_port_hi = 50;  // hi < lo
  Writer w;
  f.encode(w);
  Reader r(w.bytes());
  EXPECT_FALSE(PacketFilter::decode(r).has_value());
}

TEST(Ie, PacketFilterMatching) {
  PacketFilter f;
  f.id = 1;
  f.direction = PacketFilter::Direction::kUplink;
  f.protocol = IpProtocol::kTcp;
  f.remote_addr = Ipv4::from_string("1.2.3.4");
  f.remote_port_lo = 80;
  f.remote_port_hi = 443;
  const Ipv4 target = Ipv4::from_string("1.2.3.4");
  EXPECT_TRUE(f.matches(IpProtocol::kTcp, target, 80,
                        PacketFilter::Direction::kUplink));
  EXPECT_TRUE(f.matches(IpProtocol::kTcp, target, 443,
                        PacketFilter::Direction::kUplink));
  EXPECT_FALSE(f.matches(IpProtocol::kTcp, target, 444,
                         PacketFilter::Direction::kUplink));
  EXPECT_FALSE(f.matches(IpProtocol::kUdp, target, 80,
                         PacketFilter::Direction::kUplink));
  EXPECT_FALSE(f.matches(IpProtocol::kTcp, target, 80,
                         PacketFilter::Direction::kDownlink));
  EXPECT_FALSE(f.matches(IpProtocol::kTcp, Ipv4::from_string("1.2.3.5"), 80,
                         PacketFilter::Direction::kUplink));
}

TEST(Ie, TftRoundTripAndValidation) {
  Tft t;
  t.op = Tft::Operation::kCreateNew;
  PacketFilter f1;
  f1.id = 1;
  PacketFilter f2;
  f2.id = 2;
  t.filters = {f1, f2};
  EXPECT_EQ(roundtrip_ie(t), t);
  EXPECT_TRUE(t.semantically_valid());

  Tft dup = t;
  dup.filters[1].id = 1;  // duplicate id -> semantic error (cause #44)
  EXPECT_FALSE(dup.semantically_valid());

  Tft empty_create;
  empty_create.op = Tft::Operation::kCreateNew;
  EXPECT_FALSE(empty_create.semantically_valid());

  Tft del;
  del.op = Tft::Operation::kDeleteExisting;
  EXPECT_TRUE(del.semantically_valid());
}

TEST(Ie, QosRuleRoundTrip) {
  const QosRule q{5, 10000, 50000};
  EXPECT_EQ(roundtrip_ie(q), q);
}

TEST(Ie, Standard5qiValues) {
  EXPECT_TRUE(is_standard_5qi(1));
  EXPECT_TRUE(is_standard_5qi(9));
  EXPECT_TRUE(is_standard_5qi(65));
  EXPECT_FALSE(is_standard_5qi(0));
  EXPECT_FALSE(is_standard_5qi(42));
  EXPECT_FALSE(is_standard_5qi(255));
}

// -------------------------------------------------------------- messages

NasMessage roundtrip(const NasMessage& in) {
  const Bytes wire = test::nas_wire(in);
  const auto out = test::nas_decode(wire);
  EXPECT_TRUE(out.has_value()) << "type "
                               << static_cast<int>(message_type(in));
  return out.value_or(in);
}

TEST(Messages, RegistrationRequestRoundTrip) {
  RegistrationRequest m;
  m.identity.kind = MobileIdentity::Kind::kSuci;
  m.identity.suci = {{310, 260}, "0012345"};
  m.follow_on_request = true;
  m.requested_nssai = {{1, std::nullopt}, {2, 0xabc}};
  m.last_visited_tai = Tai{{310, 260}, 77};
  const auto out = std::get<RegistrationRequest>(roundtrip(m));
  EXPECT_EQ(out.identity, m.identity);
  EXPECT_EQ(out.follow_on_request, true);
  EXPECT_EQ(out.requested_nssai.size(), 2u);
  EXPECT_EQ(out.last_visited_tai, m.last_visited_tai);
}

TEST(Messages, RegistrationAcceptRoundTrip) {
  RegistrationAccept m;
  m.guti = {{310, 260}, 1, 5, 0x1234};
  m.tai_list = {{{310, 260}, 1}, {{310, 260}, 2}};
  m.allowed_nssai = {{1, std::nullopt}};
  m.t3512_seconds = 3240;
  const auto out = std::get<RegistrationAccept>(roundtrip(m));
  EXPECT_EQ(out.guti, m.guti);
  EXPECT_EQ(out.tai_list, m.tai_list);
  EXPECT_EQ(out.t3512_seconds, 3240u);
}

TEST(Messages, RegistrationRejectWithT3502) {
  RegistrationReject m;
  m.cause = static_cast<std::uint8_t>(MmCause::kPlmnNotAllowed);
  m.t3502_seconds = 720;
  const auto out = std::get<RegistrationReject>(roundtrip(m));
  EXPECT_EQ(out.cause, 11);
  EXPECT_EQ(out.t3502_seconds, 720u);
}

TEST(Messages, AuthenticationRequestRoundTrip) {
  AuthenticationRequest m;
  m.ngksi = 3;
  for (int i = 0; i < 16; ++i) {
    m.rand[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    m.autn[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0xf0 + i);
  }
  const auto out = std::get<AuthenticationRequest>(roundtrip(m));
  EXPECT_EQ(out.ngksi, 3);
  EXPECT_EQ(out.rand, m.rand);
  EXPECT_EQ(out.autn, m.autn);
}

TEST(Messages, AuthenticationFailureWithAuts) {
  AuthenticationFailure m;
  m.cause = static_cast<std::uint8_t>(MmCause::kSynchFailure);
  std::array<std::uint8_t, 14> auts{};
  auts[0] = 0xaa;
  auts[13] = 0xbb;
  m.auts = auts;
  const auto out = std::get<AuthenticationFailure>(roundtrip(m));
  EXPECT_EQ(out.cause, 21);
  ASSERT_TRUE(out.auts.has_value());
  EXPECT_EQ((*out.auts)[0], 0xaa);
  EXPECT_EQ((*out.auts)[13], 0xbb);
}

TEST(Messages, EmptyBodyMessages) {
  EXPECT_TRUE(std::holds_alternative<ServiceAccept>(roundtrip(ServiceAccept{})));
  EXPECT_TRUE(std::holds_alternative<AuthenticationReject>(
      roundtrip(AuthenticationReject{})));
  EXPECT_TRUE(std::holds_alternative<SecurityModeComplete>(
      roundtrip(SecurityModeComplete{})));
}

TEST(Messages, PduEstablishmentRequestRoundTrip) {
  PduSessionEstablishmentRequest m;
  m.hdr = {5, 11};
  m.type = PduSessionType::kIpv4v6;
  m.ssc = SscMode::kMode2;
  m.dnn = Dnn("internet");
  m.snssai = SNssai{1, 0x010203};
  const auto out = std::get<PduSessionEstablishmentRequest>(roundtrip(m));
  EXPECT_EQ(out.hdr.pdu_session_id, 5);
  EXPECT_EQ(out.hdr.pti, 11);
  EXPECT_EQ(out.type, PduSessionType::kIpv4v6);
  EXPECT_EQ(out.dnn, m.dnn);
  EXPECT_EQ(out.snssai, m.snssai);
}

TEST(Messages, PduEstablishmentAcceptRoundTrip) {
  PduSessionEstablishmentAccept m;
  m.hdr = {5, 11};
  m.type = PduSessionType::kIpv4;
  m.ue_addr = Ipv4::from_string("10.45.0.2");
  m.dns_addr = Ipv4::from_string("10.45.0.1");
  m.qos = {9, 100000, 500000};
  Tft t;
  t.op = Tft::Operation::kCreateNew;
  PacketFilter f;
  f.id = 1;
  t.filters = {f};
  m.tft = t;
  const auto out = std::get<PduSessionEstablishmentAccept>(roundtrip(m));
  EXPECT_EQ(out.ue_addr.to_string(), "10.45.0.2");
  EXPECT_EQ(out.dns_addr.to_string(), "10.45.0.1");
  EXPECT_EQ(out.qos, m.qos);
  EXPECT_EQ(out.tft, m.tft);
}

TEST(Messages, PduEstablishmentRejectWithBackoff) {
  PduSessionEstablishmentReject m;
  m.hdr = {5, 11};
  m.cause = static_cast<std::uint8_t>(SmCause::kMissingOrUnknownDnn);
  m.backoff_seconds = 60;
  const auto out = std::get<PduSessionEstablishmentReject>(roundtrip(m));
  EXPECT_EQ(out.cause, 27);
  EXPECT_EQ(out.backoff_seconds, 60u);
}

TEST(Messages, PduModificationCommandRoundTrip) {
  PduSessionModificationCommand m;
  m.hdr = {5, 0};
  m.dns_addr = Ipv4::from_string("9.9.9.9");
  QosRule q{5, 1, 2};
  m.qos = q;
  const auto out = std::get<PduSessionModificationCommand>(roundtrip(m));
  EXPECT_EQ(out.dns_addr->to_string(), "9.9.9.9");
  EXPECT_EQ(out.qos, q);
  EXPECT_FALSE(out.tft.has_value());
}

TEST(Messages, ReleaseSequenceRoundTrip) {
  PduSessionReleaseRequest req;
  req.hdr = {3, 9};
  const auto r1 = std::get<PduSessionReleaseRequest>(roundtrip(req));
  EXPECT_EQ(r1.hdr.pdu_session_id, 3);

  PduSessionReleaseCommand cmd;
  cmd.hdr = {3, 9};
  const auto r2 = std::get<PduSessionReleaseCommand>(roundtrip(cmd));
  EXPECT_EQ(r2.cause, 36);  // regular deactivation default

  PduSessionReleaseComplete done;
  done.hdr = {3, 9};
  const auto r3 = std::get<PduSessionReleaseComplete>(roundtrip(done));
  EXPECT_EQ(r3.hdr.pti, 9);
}

TEST(Messages, ConfigurationUpdateRoundTrip) {
  ConfigurationUpdateCommand m;
  m.guti = Guti{{310, 260}, 2, 3, 4};
  m.tai_list = {{{310, 260}, 5}};
  const auto out = std::get<ConfigurationUpdateCommand>(roundtrip(m));
  EXPECT_EQ(out.guti, m.guti);
  EXPECT_EQ(out.tai_list, m.tai_list);
}

// -------------------------------------------------- malformed input

TEST(Messages, RejectsWrongEpd) {
  Bytes wire = test::nas_wire(ServiceAccept{});
  wire[0] = 0x11;
  EXPECT_FALSE(test::nas_decode(wire).has_value());
}

TEST(Messages, RejectsUnknownType) {
  Bytes wire = test::nas_wire(ServiceAccept{});
  wire[2] = 0x00;
  EXPECT_FALSE(test::nas_decode(wire).has_value());
}

TEST(Messages, RejectsSecuredHeaderWithoutContext) {
  Bytes wire = test::nas_wire(ServiceAccept{});
  wire[1] = 1;  // claims integrity protection we don't model inline
  EXPECT_FALSE(test::nas_decode(wire).has_value());
}

TEST(Messages, RejectsTrailingGarbage) {
  Bytes wire = test::nas_wire(ServiceAccept{});
  wire.push_back(0x00);
  EXPECT_FALSE(test::nas_decode(wire).has_value());
}

TEST(Messages, RejectsEmptyBuffer) {
  EXPECT_FALSE(test::nas_decode(BytesView{}).has_value());
}

TEST(Messages, RejectsUnknownTlvTag) {
  RegistrationReject m;
  m.cause = 11;
  Bytes wire = test::nas_wire(m);
  wire.push_back(0xee);  // unknown tag
  wire.push_back(0x00);  // empty value
  EXPECT_FALSE(test::nas_decode(wire).has_value());
}

// Property: every truncation of every valid message is either rejected or
// (never) mis-parsed — the decoder must not crash and must not return a
// message that re-encodes to different bytes.
TEST(Messages, TruncationNeverCrashesOrMisparses) {
  std::vector<NasMessage> corpus;
  {
    RegistrationRequest m;
    m.identity.kind = MobileIdentity::Kind::kGuti;
    m.identity.guti = {{310, 260}, 1, 2, 3};
    m.requested_nssai = {{1, 0x111111}};
    corpus.emplace_back(m);
  }
  {
    AuthenticationRequest m;
    m.rand.fill(0xff);
    m.autn.fill(0x5a);
    corpus.emplace_back(m);
  }
  {
    PduSessionEstablishmentRequest m;
    m.hdr = {1, 2};
    m.dnn = Dnn("DIAG.payload");
    corpus.emplace_back(m);
  }
  {
    PduSessionEstablishmentAccept m;
    m.hdr = {1, 2};
    corpus.emplace_back(m);
  }
  for (const auto& msg : corpus) {
    const Bytes wire = test::nas_wire(msg);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const BytesView prefix(wire.data(), len);
      const auto out = test::nas_decode(prefix);
      if (out) {
        // A shorter parse is acceptable only if it reproduces those bytes.
        EXPECT_EQ(test::nas_wire(*out), Bytes(prefix.begin(), prefix.end()));
      }
    }
  }
}

// Property: random byte flips never crash the decoder, and accepted
// mutations still re-encode canonically.
TEST(Messages, FuzzBitFlipsAreSafe) {
  sim::Rng rng(0xf0220);
  PduSessionEstablishmentAccept m;
  m.hdr = {7, 3};
  m.qos = {9, 1000, 2000};
  Tft t;
  t.op = Tft::Operation::kAddFilters;
  PacketFilter f;
  f.id = 2;
  f.protocol = IpProtocol::kTcp;
  f.remote_port_lo = 443;
  f.remote_port_hi = 443;
  t.filters = {f};
  m.tft = t;
  const Bytes wire = test::nas_wire(m);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = wire;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    const auto out = test::nas_decode(mutated);
    if (out) {
      EXPECT_EQ(test::nas_wire(*out), mutated);
    }
  }
}

// ------------------------------------------------------ cause extraction

TEST(Messages, CarriesCauseClassification) {
  EXPECT_TRUE(carries_cause(MsgType::kRegistrationReject));
  EXPECT_TRUE(carries_cause(MsgType::kServiceReject));
  EXPECT_TRUE(carries_cause(MsgType::kPduSessionEstablishmentReject));
  EXPECT_FALSE(carries_cause(MsgType::kRegistrationAccept));
  EXPECT_FALSE(carries_cause(MsgType::kServiceRequest));
}

TEST(Messages, ExtractCauseFromRejects) {
  RegistrationReject rr;
  rr.cause = 9;
  auto c = extract_cause(NasMessage(rr));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first, Plane::kControl);
  EXPECT_EQ(c->second, 9);

  PduSessionEstablishmentReject pr;
  pr.hdr = {1, 1};
  pr.cause = 33;
  c = extract_cause(NasMessage(pr));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first, Plane::kData);
  EXPECT_EQ(c->second, 33);

  EXPECT_FALSE(extract_cause(NasMessage(ServiceAccept{})).has_value());
}

TEST(Messages, SmClassification) {
  EXPECT_TRUE(is_sm_message(MsgType::kPduSessionEstablishmentRequest));
  EXPECT_FALSE(is_sm_message(MsgType::kRegistrationRequest));
}

TEST(Messages, TypeNamesNonEmpty) {
  EXPECT_EQ(msg_type_name(MsgType::kAuthenticationRequest),
            "Authentication Request");
  EXPECT_EQ(msg_type_name(MsgType::kPduSessionEstablishmentReject),
            "PDU Session Establishment Reject");
}

// Round-trip across every registered cause code embedded in a reject.
class CauseSweepTest : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(CauseSweepTest, RegistrationRejectRoundTripsEveryMmCause) {
  RegistrationReject m;
  m.cause = GetParam();
  const auto out = std::get<RegistrationReject>(roundtrip(m));
  EXPECT_EQ(out.cause, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllMmCauses, CauseSweepTest, [] {
  std::vector<std::uint8_t> codes;
  for (const auto& c : all_mm_causes()) codes.push_back(c.code);
  return ::testing::ValuesIn(codes);
}());

// ------------------------------------------ DecodeError reason taxonomy

TEST(DecodeError, SuccessLeavesNone) {
  DecodeError err = DecodeError::kTrailingBytes;  // stale value
  const Bytes wire = test::nas_wire(NasMessage(ServiceAccept{}));
  EXPECT_TRUE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kNone);
}

TEST(DecodeError, EmptyWireIsTruncated) {
  DecodeError err;
  EXPECT_FALSE(decode_message(BytesView{}, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTruncated);
}

TEST(DecodeError, UnknownEpdIsBadProtocol) {
  const Bytes wire = {0x55, 0x00, 0x00};
  DecodeError err;
  EXPECT_FALSE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kBadProtocol);
}

TEST(DecodeError, NonPlainSecurityHeaderRejected) {
  Bytes wire = test::nas_wire(NasMessage(ServiceAccept{}));
  wire[1] = 0x01;  // integrity-protected header type: not modeled
  DecodeError err;
  EXPECT_FALSE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kBadSecurityHeader);
}

TEST(DecodeError, UnknownMessageTypeReported) {
  Bytes wire = test::nas_wire(NasMessage(ServiceAccept{}));
  wire[2] = 0xee;  // no such 5GMM type
  DecodeError err;
  EXPECT_FALSE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kUnknownType);
}

TEST(DecodeError, TruncatedBodyReported) {
  RegistrationRequest m;
  m.identity.kind = MobileIdentity::Kind::kSuci;
  m.identity.suci = {{310, 260}, "0000000001"};
  Bytes wire = test::nas_wire(NasMessage(m));
  wire.resize(wire.size() / 2);
  DecodeError err;
  EXPECT_FALSE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTruncated);
}

TEST(DecodeError, TrailingBytesReported) {
  Bytes wire = test::nas_wire(NasMessage(ServiceAccept{}));
  wire.push_back(0x00);
  DecodeError err;
  EXPECT_FALSE(decode_message(wire, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTrailingBytes);
}

TEST(DecodeError, NamesCoverTaxonomy) {
  EXPECT_EQ(decode_error_name(DecodeError::kNone), "none");
  EXPECT_EQ(decode_error_name(DecodeError::kTruncated), "truncated");
  EXPECT_EQ(decode_error_name(DecodeError::kBadProtocol), "bad-protocol");
  EXPECT_EQ(decode_error_name(DecodeError::kBadSecurityHeader),
            "bad-security-header");
  EXPECT_EQ(decode_error_name(DecodeError::kUnknownType), "unknown-type");
  EXPECT_EQ(decode_error_name(DecodeError::kBadFieldValue),
            "bad-field-value");
  EXPECT_EQ(decode_error_name(DecodeError::kTrailingBytes),
            "trailing-bytes");
}

// -------------------------------------------- Dnn IE audit regressions

TEST(Ie, DnnDecodeRejectsOversizedBody) {
  // 51 one-byte labels = 102 body bytes: over the 100-byte wire cap a
  // real DNN IE can carry; a forged length must not smuggle more.
  Bytes wire;
  wire.push_back(102);
  for (int i = 0; i < 51; ++i) {
    wire.push_back(1);
    wire.push_back('x');
  }
  Reader r(wire);
  EXPECT_FALSE(Dnn::decode(r).has_value());
  EXPECT_FALSE(r.ok());
}

TEST(Ie, DnnDecodeRejectsEmptyLabel) {
  const Bytes wire = {1, 0};  // one zero-length label
  Reader r(wire);
  EXPECT_FALSE(Dnn::decode(r).has_value());
  EXPECT_FALSE(r.ok());
}

TEST(Ie, ReaderTruncatedFlagOnlyOnOutOfBounds) {
  const Bytes wire = {0x01};
  Reader r(wire);
  (void)r.u8();
  (void)r.u8();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.truncated());
  Reader s(wire);
  (void)s.u8();
  s.fail();  // semantic failure: not a truncation
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.truncated());
}

}  // namespace
}  // namespace seed::nas
