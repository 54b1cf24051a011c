// 5G NAS message definitions and codecs (TS 24.501-style).
//
// Wire layout:
//   5GMM: EPD(0x7e) | security-header(1B, 0 = plain) | msg-type | body
//   5GSM: EPD(0x2e) | pdu-session-id | pti | msg-type | body
// Bodies are mandatory fields in fixed order followed by optional IEs as
// (tag, lv8) TLVs. decode_message() never throws on malformed input; it
// returns nullopt (the Reader pattern from common/codec.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "nas/causes.h"
#include "nas/ie.h"

namespace seed::nas {

inline constexpr std::uint8_t kEpd5gmm = 0x7e;
inline constexpr std::uint8_t kEpd5gsm = 0x2e;

enum class MsgType : std::uint8_t {
  // 5GMM
  kRegistrationRequest = 0x41,
  kRegistrationAccept = 0x42,
  kRegistrationReject = 0x44,
  kDeregistrationRequest = 0x45,
  kServiceRequest = 0x4c,
  kServiceReject = 0x4d,
  kServiceAccept = 0x4e,
  kConfigurationUpdateCommand = 0x54,
  kAuthenticationRequest = 0x56,
  kAuthenticationResponse = 0x57,
  kAuthenticationReject = 0x58,
  kAuthenticationFailure = 0x59,
  kSecurityModeCommand = 0x5d,
  kSecurityModeComplete = 0x5e,
  // 5GSM
  kPduSessionEstablishmentRequest = 0xc1,
  kPduSessionEstablishmentAccept = 0xc2,
  kPduSessionEstablishmentReject = 0xc3,
  kPduSessionModificationRequest = 0xc9,
  kPduSessionModificationReject = 0xcb,
  kPduSessionModificationCommand = 0xcc,
  kPduSessionReleaseRequest = 0xd1,
  kPduSessionReleaseCommand = 0xd3,
  kPduSessionReleaseComplete = 0xd4,
};

std::string_view msg_type_name(MsgType t);

// ------------------------------------------------------------------ 5GMM

struct RegistrationRequest {
  MobileIdentity identity;
  bool follow_on_request = false;
  std::vector<SNssai> requested_nssai;
  std::optional<Tai> last_visited_tai;
};

struct RegistrationAccept {
  Guti guti;
  std::vector<Tai> tai_list;
  std::vector<SNssai> allowed_nssai;
  std::uint32_t t3512_seconds = 3240;
};

struct RegistrationReject {
  std::uint8_t cause = 0;  // MmCause
  std::optional<std::uint32_t> t3502_seconds;
};

struct DeregistrationRequest {
  bool switch_off = false;
};

struct ServiceRequest {
  std::uint8_t service_type = 0;  // 0 signalling, 1 data
};

struct ServiceAccept {};

struct ServiceReject {
  std::uint8_t cause = 0;  // MmCause
};

/// Mutual-authentication challenge. SEED's downlink covert channel sets
/// rand = DFlag (all 0xFF) and carries an encrypted fragment in autn
/// (paper §4.5, Fig. 7a).
struct AuthenticationRequest {
  std::uint8_t ngksi = 0;
  std::array<std::uint8_t, 16> rand{};
  std::array<std::uint8_t, 16> autn{};
};

struct AuthenticationResponse {
  Bytes res;  // RES* (8..16 bytes)
};

struct AuthenticationReject {};

/// cause 21 (synch failure) doubles as SEED's downlink ACK (Fig. 7a).
struct AuthenticationFailure {
  std::uint8_t cause = 0;  // MmCause (20 MAC failure / 21 synch failure)
  std::optional<std::array<std::uint8_t, 14>> auts;
};

struct SecurityModeCommand {
  std::uint8_t ea = 2;  // 128-EEA2
  std::uint8_t ia = 2;  // 128-EIA2
};

struct SecurityModeComplete {};

struct ConfigurationUpdateCommand {
  std::optional<Guti> guti;
  std::vector<Tai> tai_list;
};

// ------------------------------------------------------------------ 5GSM

/// Common 5GSM header fields.
struct SmHeader {
  std::uint8_t pdu_session_id = 0;
  std::uint8_t pti = 0;  // procedure transaction identity
};

/// SEED's uplink covert channel embeds encrypted diagnosis fragments in
/// the DNN ("DIAG"-prefixed labels, paper §4.5, Fig. 7b).
struct PduSessionEstablishmentRequest {
  SmHeader hdr;
  PduSessionType type = PduSessionType::kIpv4;
  SscMode ssc = SscMode::kMode1;
  Dnn dnn;
  std::optional<SNssai> snssai;
};

struct PduSessionEstablishmentAccept {
  SmHeader hdr;
  PduSessionType type = PduSessionType::kIpv4;
  Ipv4 ue_addr;
  Ipv4 dns_addr;
  QosRule qos;
  std::optional<Tft> tft;
};

/// Also used as the network's ACK for an uplink diagnosis DNN (Fig. 7b).
struct PduSessionEstablishmentReject {
  SmHeader hdr;
  std::uint8_t cause = 0;  // SmCause
  std::optional<std::uint32_t> backoff_seconds;
};

struct PduSessionModificationRequest {
  SmHeader hdr;
  std::optional<Tft> tft;
  std::optional<QosRule> qos;
};

struct PduSessionModificationReject {
  SmHeader hdr;
  std::uint8_t cause = 0;  // SmCause
};

struct PduSessionModificationCommand {
  SmHeader hdr;
  std::optional<Tft> tft;
  std::optional<QosRule> qos;
  std::optional<Ipv4> dns_addr;
};

struct PduSessionReleaseRequest {
  SmHeader hdr;
};

struct PduSessionReleaseCommand {
  SmHeader hdr;
  std::uint8_t cause =
      static_cast<std::uint8_t>(SmCause::kRegularDeactivation);
};

struct PduSessionReleaseComplete {
  SmHeader hdr;
};

// ------------------------------------------------------------- dispatch

using NasMessage = std::variant<
    RegistrationRequest, RegistrationAccept, RegistrationReject,
    DeregistrationRequest, ServiceRequest, ServiceAccept, ServiceReject,
    AuthenticationRequest, AuthenticationResponse, AuthenticationReject,
    AuthenticationFailure, SecurityModeCommand, SecurityModeComplete,
    ConfigurationUpdateCommand, PduSessionEstablishmentRequest,
    PduSessionEstablishmentAccept, PduSessionEstablishmentReject,
    PduSessionModificationRequest, PduSessionModificationReject,
    PduSessionModificationCommand, PduSessionReleaseRequest,
    PduSessionReleaseCommand, PduSessionReleaseComplete>;

/// Serializes any NAS message into `scratch` (cleared first, capacity
/// kept) and returns a view of the wire bytes, which are all of
/// `scratch`. The view is valid until the next use of `scratch`. Steady
/// state allocates nothing once the scratch capacity has warmed up to the
/// largest message seen.
BytesView encode_message_into(const NasMessage& msg, Bytes& scratch);

/// Why a decode rejected its input. kNone means the decode succeeded;
/// every nullopt return maps to exactly one non-kNone reason, so callers
/// can account for rejects without re-parsing.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTruncated,          // input ended before a required field
  kBadProtocol,        // unknown extended protocol discriminator
  kBadSecurityHeader,  // 5GMM security header type not plain
  kUnknownType,        // message type octet not one we speak
  kBadFieldValue,      // a field decoded but held an invalid value
  kTrailingBytes,      // valid message followed by trailing garbage
};

std::string_view decode_error_name(DecodeError e);

/// Parses wire bytes; nullopt on any malformed input (wrong EPD, unknown
/// type, truncated body, trailing garbage, invalid field values). Reports
/// the reject reason through `err` (set to kNone on success); never
/// leaves `err` unset.
std::optional<NasMessage> decode_message(BytesView data, DecodeError* err);

/// Message type of an in-memory message (for logging/stats).
MsgType message_type(const NasMessage& msg);

/// True for 5GSM messages (data-plane management).
bool is_sm_message(MsgType t);

/// True for the reject/failure messages that carry standardized causes —
/// the signal SEED's infra plugin hooks (paper §4.3.1).
bool carries_cause(MsgType t);

/// Extracts the (plane, cause) pair when the message carries one.
std::optional<std::pair<Plane, std::uint8_t>> extract_cause(
    const NasMessage& msg);

}  // namespace seed::nas
