// Downlink diagnosis-assistance payload (infrastructure -> SIM) and its
// transport over standard Authentication Request messages (paper §4.5,
// Fig. 7a; assistance types from §5.2).
//
// The infrastructure builds a DiagInfo, protects it with the in-SIM key
// (crypto::SecurityContext: EEA2 + EIA2 + counter), then fragments the
// protected frame into 16-byte AUTN fields. Each Authentication Request
// carries RAND = DFlag (all 0xFF) and one fragment; the SIM ACKs each
// round with Authentication Failure (cause 21, synch failure).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "nas/causes.h"
#include "nas/ie.h"

namespace seed::proto {

/// Reserved RAND value marking a diagnosis-carrying Auth Request.
inline constexpr std::array<std::uint8_t, 16> kDFlag = {
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};

bool is_dflag(const std::array<std::uint8_t, 16>& rand);

/// The four assistance-information types of §5.2 plus the customized-cause
/// variants used by online learning (§5.3).
enum class AssistKind : std::uint8_t {
  kStandardCause = 1,        // cause code only (§4.3)
  kCauseWithConfig = 2,      // cause + up-to-date configuration (§4.3)
  kSuggestedAction = 3,      // customized failure + suggested reset (§5.2)
  kCongestionWarning = 4,    // back off for `congestion_wait_s` (§5.2)
  kCustomCauseNoAction = 5,  // unknown handling -> online learning (§5.3)
  kHardwareResetRequest = 6, // passive timeout branch of Fig. 8
};

/// Configuration attached to a config-related cause (Appendix A). The
/// value holds the encoded IE for the kind (Dnn, SNssai, Tft, ...).
struct ConfigPayload {
  nas::ConfigKind kind = nas::ConfigKind::kNone;
  Bytes value;
  bool operator==(const ConfigPayload&) const = default;
};

/// Multi-tier reset actions (paper Fig. 5). Shared by seedproto (wire
/// encoding of suggested actions) and the seed core (decision logic).
enum class ResetAction : std::uint8_t {
  kNone = 0,
  kA1ProfileReload = 1,       // w/o root: SIM profile reload
  kA2CPlaneConfigUpdate = 2,  // w/o root: control-plane config update
  kA3DPlaneConfigUpdate = 3,  // w/o root: data-plane config update
  kB1ModemReset = 4,          // w/ root: AT+CFUN modem reset
  kB2CPlaneReattach = 5,      // w/ root: AT+CGATT reattach
  kB3DPlaneReset = 6,         // w/ root: fast data-plane reset/modification
  kNotifyUser = 7,            // user action required (expired plan, ...)
};

std::string_view reset_action_name(ResetAction a);

/// Downlink assistance message body (plaintext, pre-protection).
struct DiagInfo {
  AssistKind kind = AssistKind::kStandardCause;
  nas::Plane plane = nas::Plane::kControl;
  std::uint8_t cause = 0;  // standardized code or customized code
  std::optional<ConfigPayload> config;        // kCauseWithConfig
  std::optional<ResetAction> suggested;       // kSuggestedAction
  std::optional<std::uint16_t> congestion_wait_s;  // kCongestionWarning
  bool operator==(const DiagInfo&) const = default;

  /// Appends the encoding to `w` (arena/scratch-backed Writers make the
  /// hot path allocation-free).
  void encode_into(Writer& w) const;
  static std::optional<DiagInfo> decode(BytesView data);
};

/// Splits a protected frame into 16-byte AUTN fragments.
/// Fragment layout: 1 header byte (seq << 4 | total) + 15 payload bytes
/// (last fragment zero-padded; true length restored from the header of
/// fragment 0, which stores the final-fragment payload length instead of
/// seq — see implementation). Max frame = 15 * 15 = 225 bytes.
class AutnCodec {
 public:
  static constexpr std::size_t kFragmentPayload = 15;
  static constexpr std::size_t kMaxFrame = 15 * kFragmentPayload;

  /// Clears `out` and refills it with the fragments, keeping its capacity
  /// across transfers (per-UE frag queues stay allocation-free). Throws
  /// std::length_error when the frame exceeds kMaxFrame.
  static void fragment_into(BytesView frame,
                            std::vector<std::array<std::uint8_t, 16>>& out);

  /// Streaming reassembler. Feed fragments in order; returns the full
  /// frame once complete. Out-of-order or inconsistent fragments reset
  /// the state and return nullopt.
  class Reassembler {
   public:
    /// The returned view aliases the reassembler's internal buffer and
    /// stays valid until the next feed_view()/reset() call.
    std::optional<BytesView> feed_view(const std::array<std::uint8_t, 16>& autn);
    void reset();
    std::size_t pending_fragments() const { return received_; }
    /// True when the most recent feed_view() *rejected* its input
    /// (malformed or inconsistent fragment). False for the benign nullopt
    /// cases — mid-transfer progress and duplicate-of-last — so receivers
    /// can account for genuinely malformed traffic.
    bool last_rejected() const { return last_rejected_; }

   private:
    std::optional<BytesView> reject();

    Bytes buffer_;
    std::uint8_t expected_total_ = 0;
    std::uint8_t received_ = 0;
    std::uint8_t last_len_ = 0;
    /// Fragment count of the transfer that last completed; a retransmit
    /// of its final fragment (lost ACK) is a benign duplicate.
    std::uint8_t last_completed_total_ = 0;
    bool last_rejected_ = false;
  };
};

}  // namespace seed::proto
