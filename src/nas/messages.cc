#include "nas/messages.h"

#include <type_traits>

#include "obs/prof.h"

namespace seed::nas {

namespace {

// Optional-IE tags (shared across messages; values are local to this
// simulation's TLV scheme).
constexpr std::uint8_t kIeiLastVisitedTai = 0x52;
constexpr std::uint8_t kIeiT3502 = 0x16;
constexpr std::uint8_t kIeiAuts = 0x30;
constexpr std::uint8_t kIeiGuti = 0x77;
constexpr std::uint8_t kIeiSnssai = 0x22;
constexpr std::uint8_t kIeiTft = 0x59;
constexpr std::uint8_t kIeiQos = 0x79;
constexpr std::uint8_t kIeiDns = 0x39;
constexpr std::uint8_t kIeiBackoff = 0x37;

void write_mm_header(Writer& w, MsgType t) {
  w.u8(kEpd5gmm);
  w.u8(0);  // plain security header
  w.u8(static_cast<std::uint8_t>(t));
}

void write_sm_header(Writer& w, const SmHeader& h, MsgType t) {
  w.u8(kEpd5gsm);
  w.u8(h.pdu_session_id);
  w.u8(h.pti);
  w.u8(static_cast<std::uint8_t>(t));
}

template <typename T>
void encode_ie_tlv(Writer& w, std::uint8_t tag, const T& ie) {
  const std::size_t value = w.tlv8_begin(tag);
  ie.encode(w);
  w.lv8_end(value);
}

void encode_u32_tlv(Writer& w, std::uint8_t tag, std::uint32_t v) {
  w.u8(tag);
  w.u8(4);
  w.u32(v);
}

// Iterates the optional-TLV tail; `handler(tag, Reader&)` returns false on
// unknown tag or parse error.
template <typename Handler>
bool parse_tlvs(Reader& r, Handler&& handler) {
  while (r.ok() && r.remaining() > 0) {
    const std::uint8_t tag = r.u8();
    const BytesView value = r.lv8();
    if (!r.ok()) return false;
    Reader vr(value);
    if (!handler(tag, vr)) return false;
    if (!vr.done()) return false;  // value must be fully consumed
  }
  return r.ok();
}

// ---------------------------------------------------------------- bodies

void encode_body(Writer& w, const RegistrationRequest& m) {
  m.identity.encode(w);
  w.u8(m.follow_on_request ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(m.requested_nssai.size()));
  for (const auto& s : m.requested_nssai) s.encode(w);
  if (m.last_visited_tai) encode_ie_tlv(w, kIeiLastVisitedTai, *m.last_visited_tai);
}

std::optional<RegistrationRequest> decode_registration_request(Reader& r) {
  RegistrationRequest m;
  const auto id = MobileIdentity::decode(r);
  if (!id) return std::nullopt;
  m.identity = *id;
  const std::uint8_t follow = r.u8();
  if (follow > 1) return std::nullopt;
  m.follow_on_request = follow == 1;
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; r.ok() && i < n; ++i) {
    const auto s = SNssai::decode(r);
    if (!s) return std::nullopt;
    m.requested_nssai.push_back(*s);
  }
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiLastVisitedTai) {
      const auto t = Tai::decode(vr);
      if (!t) return false;
      m.last_visited_tai = *t;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const RegistrationAccept& m) {
  m.guti.encode(w);
  w.u8(static_cast<std::uint8_t>(m.tai_list.size()));
  for (const auto& t : m.tai_list) t.encode(w);
  w.u8(static_cast<std::uint8_t>(m.allowed_nssai.size()));
  for (const auto& s : m.allowed_nssai) s.encode(w);
  w.u32(m.t3512_seconds);
}

std::optional<RegistrationAccept> decode_registration_accept(Reader& r) {
  RegistrationAccept m;
  const auto g = Guti::decode(r);
  if (!g) return std::nullopt;
  m.guti = *g;
  const std::uint8_t nt = r.u8();
  for (std::uint8_t i = 0; r.ok() && i < nt; ++i) {
    const auto t = Tai::decode(r);
    if (!t) return std::nullopt;
    m.tai_list.push_back(*t);
  }
  const std::uint8_t ns = r.u8();
  for (std::uint8_t i = 0; r.ok() && i < ns; ++i) {
    const auto s = SNssai::decode(r);
    if (!s) return std::nullopt;
    m.allowed_nssai.push_back(*s);
  }
  m.t3512_seconds = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const RegistrationReject& m) {
  w.u8(m.cause);
  if (m.t3502_seconds) encode_u32_tlv(w, kIeiT3502, *m.t3502_seconds);
}

std::optional<RegistrationReject> decode_registration_reject(Reader& r) {
  RegistrationReject m;
  m.cause = r.u8();
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiT3502) {
      m.t3502_seconds = vr.u32();
      return vr.ok();
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const DeregistrationRequest& m) {
  w.u8(m.switch_off ? 1 : 0);
}

std::optional<DeregistrationRequest> decode_deregistration_request(Reader& r) {
  DeregistrationRequest m;
  const std::uint8_t v = r.u8();
  if (!r.done() || v > 1) return std::nullopt;
  m.switch_off = v == 1;
  return m;
}

void encode_body(Writer& w, const ServiceRequest& m) { w.u8(m.service_type); }

std::optional<ServiceRequest> decode_service_request(Reader& r) {
  ServiceRequest m;
  m.service_type = r.u8();
  if (!r.done() || m.service_type > 1) return std::nullopt;
  return m;
}

void encode_body(Writer&, const ServiceAccept&) {}

void encode_body(Writer& w, const ServiceReject& m) { w.u8(m.cause); }

std::optional<ServiceReject> decode_service_reject(Reader& r) {
  ServiceReject m;
  m.cause = r.u8();
  if (!r.done()) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const AuthenticationRequest& m) {
  w.u8(m.ngksi);
  w.raw(BytesView(m.rand.data(), m.rand.size()));
  w.raw(BytesView(m.autn.data(), m.autn.size()));
}

std::optional<AuthenticationRequest> decode_authentication_request(Reader& r) {
  AuthenticationRequest m;
  m.ngksi = r.u8();
  const BytesView rand = r.raw(16);
  const BytesView autn = r.raw(16);
  if (!r.done() || m.ngksi > 7) return std::nullopt;
  for (std::size_t i = 0; i < 16; ++i) {
    m.rand[i] = rand[i];
    m.autn[i] = autn[i];
  }
  return m;
}

void encode_body(Writer& w, const AuthenticationResponse& m) {
  w.lv8(m.res);
}

std::optional<AuthenticationResponse> decode_authentication_response(
    Reader& r) {
  AuthenticationResponse m;
  const BytesView res = r.lv8();
  m.res.assign(res.begin(), res.end());
  if (!r.done() || m.res.size() < 4 || m.res.size() > 16) return std::nullopt;
  return m;
}

void encode_body(Writer&, const AuthenticationReject&) {}

void encode_body(Writer& w, const AuthenticationFailure& m) {
  w.u8(m.cause);
  if (m.auts) {
    w.u8(kIeiAuts);
    w.u8(static_cast<std::uint8_t>(m.auts->size()));
    w.raw(BytesView(m.auts->data(), m.auts->size()));
  }
}

std::optional<AuthenticationFailure> decode_authentication_failure(Reader& r) {
  AuthenticationFailure m;
  m.cause = r.u8();
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiAuts) {
      const BytesView a = vr.raw(14);
      if (!vr.ok()) return false;
      std::array<std::uint8_t, 14> auts{};
      for (std::size_t i = 0; i < 14; ++i) auts[i] = a[i];
      m.auts = auts;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const SecurityModeCommand& m) {
  w.u8(m.ea);
  w.u8(m.ia);
}

std::optional<SecurityModeCommand> decode_security_mode_command(Reader& r) {
  SecurityModeCommand m;
  m.ea = r.u8();
  m.ia = r.u8();
  if (!r.done() || m.ea > 3 || m.ia > 3) return std::nullopt;
  return m;
}

void encode_body(Writer&, const SecurityModeComplete&) {}

void encode_body(Writer& w, const ConfigurationUpdateCommand& m) {
  w.u8(static_cast<std::uint8_t>(m.tai_list.size()));
  for (const auto& t : m.tai_list) t.encode(w);
  if (m.guti) encode_ie_tlv(w, kIeiGuti, *m.guti);
}

std::optional<ConfigurationUpdateCommand> decode_configuration_update(
    Reader& r) {
  ConfigurationUpdateCommand m;
  const std::uint8_t n = r.u8();
  for (std::uint8_t i = 0; r.ok() && i < n; ++i) {
    const auto t = Tai::decode(r);
    if (!t) return std::nullopt;
    m.tai_list.push_back(*t);
  }
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiGuti) {
      const auto g = Guti::decode(vr);
      if (!g) return false;
      m.guti = *g;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

// --------------------------------------------------------------- 5GSM

void encode_body(Writer& w, const PduSessionEstablishmentRequest& m) {
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u8(static_cast<std::uint8_t>(m.ssc));
  m.dnn.encode(w);
  if (m.snssai) encode_ie_tlv(w, kIeiSnssai, *m.snssai);
}

std::optional<PduSessionEstablishmentRequest> decode_pdu_estb_request(
    Reader& r, const SmHeader& hdr) {
  PduSessionEstablishmentRequest m;
  m.hdr = hdr;
  const std::uint8_t type = r.u8();
  const std::uint8_t ssc = r.u8();
  if (type < 1 || type > 5 || ssc < 1 || ssc > 3) return std::nullopt;
  m.type = static_cast<PduSessionType>(type);
  m.ssc = static_cast<SscMode>(ssc);
  const auto dnn = Dnn::decode(r);
  if (!dnn) return std::nullopt;
  m.dnn = *dnn;
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiSnssai) {
      const auto s = SNssai::decode(vr);
      if (!s) return false;
      m.snssai = *s;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const PduSessionEstablishmentAccept& m) {
  w.u8(static_cast<std::uint8_t>(m.type));
  w.raw(BytesView(m.ue_addr.octets.data(), m.ue_addr.octets.size()));
  w.raw(BytesView(m.dns_addr.octets.data(), m.dns_addr.octets.size()));
  m.qos.encode(w);
  if (m.tft) encode_ie_tlv(w, kIeiTft, *m.tft);
}

std::optional<PduSessionEstablishmentAccept> decode_pdu_estb_accept(
    Reader& r, const SmHeader& hdr) {
  PduSessionEstablishmentAccept m;
  m.hdr = hdr;
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 5) return std::nullopt;
  m.type = static_cast<PduSessionType>(type);
  const BytesView ue = r.raw(4);
  const BytesView dns = r.raw(4);
  if (!r.ok()) return std::nullopt;
  for (std::size_t i = 0; i < 4; ++i) {
    m.ue_addr.octets[i] = ue[i];
    m.dns_addr.octets[i] = dns[i];
  }
  const auto q = QosRule::decode(r);
  if (!q) return std::nullopt;
  m.qos = *q;
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiTft) {
      const auto t = Tft::decode(vr);
      if (!t) return false;
      m.tft = *t;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const PduSessionEstablishmentReject& m) {
  w.u8(m.cause);
  if (m.backoff_seconds) encode_u32_tlv(w, kIeiBackoff, *m.backoff_seconds);
}

std::optional<PduSessionEstablishmentReject> decode_pdu_estb_reject(
    Reader& r, const SmHeader& hdr) {
  PduSessionEstablishmentReject m;
  m.hdr = hdr;
  m.cause = r.u8();
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiBackoff) {
      m.backoff_seconds = vr.u32();
      return vr.ok();
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const PduSessionModificationRequest& m) {
  if (m.tft) encode_ie_tlv(w, kIeiTft, *m.tft);
  if (m.qos) encode_ie_tlv(w, kIeiQos, *m.qos);
}

std::optional<PduSessionModificationRequest> decode_pdu_mod_request(
    Reader& r, const SmHeader& hdr) {
  PduSessionModificationRequest m;
  m.hdr = hdr;
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiTft) {
      const auto t = Tft::decode(vr);
      if (!t) return false;
      m.tft = *t;
      return true;
    }
    if (tag == kIeiQos) {
      const auto q = QosRule::decode(vr);
      if (!q) return false;
      m.qos = *q;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const PduSessionModificationReject& m) {
  w.u8(m.cause);
}

std::optional<PduSessionModificationReject> decode_pdu_mod_reject(
    Reader& r, const SmHeader& hdr) {
  PduSessionModificationReject m;
  m.hdr = hdr;
  m.cause = r.u8();
  if (!r.done()) return std::nullopt;
  return m;
}

void encode_body(Writer& w, const PduSessionModificationCommand& m) {
  if (m.tft) encode_ie_tlv(w, kIeiTft, *m.tft);
  if (m.qos) encode_ie_tlv(w, kIeiQos, *m.qos);
  if (m.dns_addr) {
    w.u8(kIeiDns);
    w.u8(static_cast<std::uint8_t>(m.dns_addr->octets.size()));
    w.raw(BytesView(m.dns_addr->octets.data(), m.dns_addr->octets.size()));
  }
}

std::optional<PduSessionModificationCommand> decode_pdu_mod_command(
    Reader& r, const SmHeader& hdr) {
  PduSessionModificationCommand m;
  m.hdr = hdr;
  const bool ok = parse_tlvs(r, [&](std::uint8_t tag, Reader& vr) {
    if (tag == kIeiTft) {
      const auto t = Tft::decode(vr);
      if (!t) return false;
      m.tft = *t;
      return true;
    }
    if (tag == kIeiQos) {
      const auto q = QosRule::decode(vr);
      if (!q) return false;
      m.qos = *q;
      return true;
    }
    if (tag == kIeiDns) {
      const BytesView a = vr.raw(4);
      if (!vr.ok()) return false;
      Ipv4 ip;
      for (std::size_t i = 0; i < 4; ++i) ip.octets[i] = a[i];
      m.dns_addr = ip;
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return m;
}

void encode_body(Writer&, const PduSessionReleaseRequest&) {}

void encode_body(Writer& w, const PduSessionReleaseCommand& m) {
  w.u8(m.cause);
}

std::optional<PduSessionReleaseCommand> decode_pdu_release_command(
    Reader& r, const SmHeader& hdr) {
  PduSessionReleaseCommand m;
  m.hdr = hdr;
  m.cause = r.u8();
  if (!r.done()) return std::nullopt;
  return m;
}

void encode_body(Writer&, const PduSessionReleaseComplete&) {}

// ------------------------------------------------------------- type map

template <typename T>
struct MsgTraits;

#define SEED_MSG_TRAITS(Type, Enum, IsSm)                  \
  template <>                                              \
  struct MsgTraits<Type> {                                 \
    static constexpr MsgType kType = MsgType::Enum;        \
    static constexpr bool kSm = IsSm;                      \
  }

SEED_MSG_TRAITS(RegistrationRequest, kRegistrationRequest, false);
SEED_MSG_TRAITS(RegistrationAccept, kRegistrationAccept, false);
SEED_MSG_TRAITS(RegistrationReject, kRegistrationReject, false);
SEED_MSG_TRAITS(DeregistrationRequest, kDeregistrationRequest, false);
SEED_MSG_TRAITS(ServiceRequest, kServiceRequest, false);
SEED_MSG_TRAITS(ServiceAccept, kServiceAccept, false);
SEED_MSG_TRAITS(ServiceReject, kServiceReject, false);
SEED_MSG_TRAITS(AuthenticationRequest, kAuthenticationRequest, false);
SEED_MSG_TRAITS(AuthenticationResponse, kAuthenticationResponse, false);
SEED_MSG_TRAITS(AuthenticationReject, kAuthenticationReject, false);
SEED_MSG_TRAITS(AuthenticationFailure, kAuthenticationFailure, false);
SEED_MSG_TRAITS(SecurityModeCommand, kSecurityModeCommand, false);
SEED_MSG_TRAITS(SecurityModeComplete, kSecurityModeComplete, false);
SEED_MSG_TRAITS(ConfigurationUpdateCommand, kConfigurationUpdateCommand,
                false);
SEED_MSG_TRAITS(PduSessionEstablishmentRequest,
                kPduSessionEstablishmentRequest, true);
SEED_MSG_TRAITS(PduSessionEstablishmentAccept, kPduSessionEstablishmentAccept,
                true);
SEED_MSG_TRAITS(PduSessionEstablishmentReject, kPduSessionEstablishmentReject,
                true);
SEED_MSG_TRAITS(PduSessionModificationRequest,
                kPduSessionModificationRequest, true);
SEED_MSG_TRAITS(PduSessionModificationReject, kPduSessionModificationReject,
                true);
SEED_MSG_TRAITS(PduSessionModificationCommand, kPduSessionModificationCommand,
                true);
SEED_MSG_TRAITS(PduSessionReleaseRequest, kPduSessionReleaseRequest, true);
SEED_MSG_TRAITS(PduSessionReleaseCommand, kPduSessionReleaseCommand, true);
SEED_MSG_TRAITS(PduSessionReleaseComplete, kPduSessionReleaseComplete, true);

#undef SEED_MSG_TRAITS

}  // namespace

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kRegistrationRequest: return "Registration Request";
    case MsgType::kRegistrationAccept: return "Registration Accept";
    case MsgType::kRegistrationReject: return "Registration Reject";
    case MsgType::kDeregistrationRequest: return "Deregistration Request";
    case MsgType::kServiceRequest: return "Service Request";
    case MsgType::kServiceReject: return "Service Reject";
    case MsgType::kServiceAccept: return "Service Accept";
    case MsgType::kConfigurationUpdateCommand:
      return "Configuration Update Command";
    case MsgType::kAuthenticationRequest: return "Authentication Request";
    case MsgType::kAuthenticationResponse: return "Authentication Response";
    case MsgType::kAuthenticationReject: return "Authentication Reject";
    case MsgType::kAuthenticationFailure: return "Authentication Failure";
    case MsgType::kSecurityModeCommand: return "Security Mode Command";
    case MsgType::kSecurityModeComplete: return "Security Mode Complete";
    case MsgType::kPduSessionEstablishmentRequest:
      return "PDU Session Establishment Request";
    case MsgType::kPduSessionEstablishmentAccept:
      return "PDU Session Establishment Accept";
    case MsgType::kPduSessionEstablishmentReject:
      return "PDU Session Establishment Reject";
    case MsgType::kPduSessionModificationRequest:
      return "PDU Session Modification Request";
    case MsgType::kPduSessionModificationReject:
      return "PDU Session Modification Reject";
    case MsgType::kPduSessionModificationCommand:
      return "PDU Session Modification Command";
    case MsgType::kPduSessionReleaseRequest:
      return "PDU Session Release Request";
    case MsgType::kPduSessionReleaseCommand:
      return "PDU Session Release Command";
    case MsgType::kPduSessionReleaseComplete:
      return "PDU Session Release Complete";
  }
  return "Unknown";
}

BytesView encode_message_into(const NasMessage& msg, Bytes& scratch) {
  PROF_ZONE("nas.encode");
  const std::size_t warm_capacity = scratch.capacity();
  Writer w(std::move(scratch));
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (MsgTraits<T>::kSm) {
          write_sm_header(w, m.hdr, MsgTraits<T>::kType);
        } else {
          write_mm_header(w, MsgTraits<T>::kType);
        }
        encode_body(w, m);
      },
      msg);
  scratch = std::move(w).take();
  PROF_BYTES(scratch.size());
  // A real allocation happened only if the scratch outgrew its warmed-up
  // capacity; steady state (pooled buffers) records zero allocs. Counted
  // by message size, not capacity, so the profile stays platform-exact.
  if (scratch.capacity() > warm_capacity) PROF_ALLOC(scratch.size());
  return scratch;
}

std::string_view decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadProtocol: return "bad-protocol";
    case DecodeError::kBadSecurityHeader: return "bad-security-header";
    case DecodeError::kUnknownType: return "unknown-type";
    case DecodeError::kBadFieldValue: return "bad-field-value";
    case DecodeError::kTrailingBytes: return "trailing-bytes";
  }
  return "invalid";
}

std::optional<NasMessage> decode_message(BytesView data, DecodeError* err) {
  PROF_ZONE("nas.decode");
  PROF_BYTES(data.size());
  *err = DecodeError::kNone;
  Reader r(data);
  const std::uint8_t epd = r.u8();
  if (!r.ok()) {
    *err = DecodeError::kTruncated;
    return std::nullopt;
  }

  // Classifies a body decoder's nullopt from the reader state: the first
  // failure being an out-of-bounds read means truncated input; a clean
  // reader with leftover bytes means trailing garbage; anything else is
  // a field that decoded but held an invalid value.
  auto wrap = [err, &r](auto&& opt) -> std::optional<NasMessage> {
    if (!opt) {
      if (!r.ok()) {
        *err = r.truncated() ? DecodeError::kTruncated
                             : DecodeError::kBadFieldValue;
      } else if (!r.done()) {
        *err = DecodeError::kTrailingBytes;
      } else {
        *err = DecodeError::kBadFieldValue;
      }
      return std::nullopt;
    }
    return NasMessage(*opt);
  };
  // Empty-body messages: anything after the header is trailing garbage.
  auto empty_body = [err, &r](auto msg) -> std::optional<NasMessage> {
    if (r.done()) return NasMessage(msg);
    *err = r.truncated() ? DecodeError::kTruncated
                         : DecodeError::kTrailingBytes;
    return std::nullopt;
  };

  if (epd == kEpd5gmm) {
    const std::uint8_t sec = r.u8();
    const std::uint8_t type = r.u8();
    if (!r.ok()) {
      *err = DecodeError::kTruncated;
      return std::nullopt;
    }
    if (sec != 0) {
      *err = DecodeError::kBadSecurityHeader;
      return std::nullopt;
    }
    switch (static_cast<MsgType>(type)) {
      case MsgType::kRegistrationRequest:
        return wrap(decode_registration_request(r));
      case MsgType::kRegistrationAccept:
        return wrap(decode_registration_accept(r));
      case MsgType::kRegistrationReject:
        return wrap(decode_registration_reject(r));
      case MsgType::kDeregistrationRequest:
        return wrap(decode_deregistration_request(r));
      case MsgType::kServiceRequest:
        return wrap(decode_service_request(r));
      case MsgType::kServiceAccept:
        return empty_body(ServiceAccept{});
      case MsgType::kServiceReject:
        return wrap(decode_service_reject(r));
      case MsgType::kAuthenticationRequest:
        return wrap(decode_authentication_request(r));
      case MsgType::kAuthenticationResponse:
        return wrap(decode_authentication_response(r));
      case MsgType::kAuthenticationReject:
        return empty_body(AuthenticationReject{});
      case MsgType::kAuthenticationFailure:
        return wrap(decode_authentication_failure(r));
      case MsgType::kSecurityModeCommand:
        return wrap(decode_security_mode_command(r));
      case MsgType::kSecurityModeComplete:
        return empty_body(SecurityModeComplete{});
      case MsgType::kConfigurationUpdateCommand:
        return wrap(decode_configuration_update(r));
      default:
        *err = DecodeError::kUnknownType;
        return std::nullopt;
    }
  }

  if (epd == kEpd5gsm) {
    SmHeader hdr;
    hdr.pdu_session_id = r.u8();
    hdr.pti = r.u8();
    const std::uint8_t type = r.u8();
    if (!r.ok()) {
      *err = DecodeError::kTruncated;
      return std::nullopt;
    }
    switch (static_cast<MsgType>(type)) {
      case MsgType::kPduSessionEstablishmentRequest:
        return wrap(decode_pdu_estb_request(r, hdr));
      case MsgType::kPduSessionEstablishmentAccept:
        return wrap(decode_pdu_estb_accept(r, hdr));
      case MsgType::kPduSessionEstablishmentReject:
        return wrap(decode_pdu_estb_reject(r, hdr));
      case MsgType::kPduSessionModificationRequest:
        return wrap(decode_pdu_mod_request(r, hdr));
      case MsgType::kPduSessionModificationReject:
        return wrap(decode_pdu_mod_reject(r, hdr));
      case MsgType::kPduSessionModificationCommand:
        return wrap(decode_pdu_mod_command(r, hdr));
      case MsgType::kPduSessionReleaseRequest:
        return empty_body(PduSessionReleaseRequest{hdr});
      case MsgType::kPduSessionReleaseCommand:
        return wrap(decode_pdu_release_command(r, hdr));
      case MsgType::kPduSessionReleaseComplete:
        return empty_body(PduSessionReleaseComplete{hdr});
      default:
        *err = DecodeError::kUnknownType;
        return std::nullopt;
    }
  }

  *err = DecodeError::kBadProtocol;
  return std::nullopt;
}

MsgType message_type(const NasMessage& msg) {
  return std::visit(
      [](const auto& m) {
        return MsgTraits<std::decay_t<decltype(m)>>::kType;
      },
      msg);
}

bool is_sm_message(MsgType t) {
  return static_cast<std::uint8_t>(t) >= 0xc0;
}

bool carries_cause(MsgType t) {
  switch (t) {
    case MsgType::kRegistrationReject:
    case MsgType::kServiceReject:
    case MsgType::kAuthenticationFailure:
    case MsgType::kPduSessionEstablishmentReject:
    case MsgType::kPduSessionModificationReject:
    case MsgType::kPduSessionReleaseCommand:
      return true;
    default:
      return false;
  }
}

std::optional<std::pair<Plane, std::uint8_t>> extract_cause(
    const NasMessage& msg) {
  using Result = std::optional<std::pair<Plane, std::uint8_t>>;
  return std::visit(
      [](const auto& m) -> Result {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RegistrationReject> ||
                      std::is_same_v<T, ServiceReject> ||
                      std::is_same_v<T, AuthenticationFailure>) {
          return std::make_pair(Plane::kControl, m.cause);
        } else if constexpr (std::is_same_v<T, PduSessionEstablishmentReject> ||
                             std::is_same_v<T, PduSessionModificationReject> ||
                             std::is_same_v<T, PduSessionReleaseCommand>) {
          return std::make_pair(Plane::kData, m.cause);
        } else {
          return std::nullopt;
        }
      },
      msg);
}

}  // namespace seed::nas
