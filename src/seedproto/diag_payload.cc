#include "seedproto/diag_payload.h"

#include <stdexcept>

#include "common/codec.h"
#include "obs/prof.h"

namespace seed::proto {

bool is_dflag(const std::array<std::uint8_t, 16>& rand) {
  for (std::uint8_t b : rand) {
    if (b != 0xff) return false;
  }
  return true;
}

std::string_view reset_action_name(ResetAction a) {
  switch (a) {
    case ResetAction::kNone: return "none";
    case ResetAction::kA1ProfileReload: return "A1:sim-profile-reload";
    case ResetAction::kA2CPlaneConfigUpdate: return "A2:cplane-config-update";
    case ResetAction::kA3DPlaneConfigUpdate: return "A3:dplane-config-update";
    case ResetAction::kB1ModemReset: return "B1:modem-reset";
    case ResetAction::kB2CPlaneReattach: return "B2:cplane-reattach";
    case ResetAction::kB3DPlaneReset: return "B3:dplane-reset";
    case ResetAction::kNotifyUser: return "notify-user";
  }
  return "invalid";
}

void DiagInfo::encode_into(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(plane == nas::Plane::kControl ? 0 : 1);
  w.u8(cause);
  std::uint8_t flags = 0;
  if (config) flags |= 0x01;
  if (suggested) flags |= 0x02;
  if (congestion_wait_s) flags |= 0x04;
  w.u8(flags);
  if (config) {
    w.u8(static_cast<std::uint8_t>(config->kind));
    w.lv8(config->value);
  }
  if (suggested) w.u8(static_cast<std::uint8_t>(*suggested));
  if (congestion_wait_s) w.u16(*congestion_wait_s);
}

std::optional<DiagInfo> DiagInfo::decode(BytesView data) {
  Reader r(data);
  DiagInfo d;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 6) return std::nullopt;
  d.kind = static_cast<AssistKind>(kind);
  const std::uint8_t plane = r.u8();
  if (plane > 1) return std::nullopt;
  d.plane = plane == 0 ? nas::Plane::kControl : nas::Plane::kData;
  d.cause = r.u8();
  const std::uint8_t flags = r.u8();
  if (flags & ~0x07) return std::nullopt;
  if (flags & 0x01) {
    const std::uint8_t ck = r.u8();
    if (ck > static_cast<std::uint8_t>(nas::ConfigKind::kInvalidOrMissedConfig)) {
      return std::nullopt;
    }
    ConfigPayload cp;
    cp.kind = static_cast<nas::ConfigKind>(ck);
    const BytesView value = r.lv8();
    cp.value.assign(value.begin(), value.end());
    d.config = std::move(cp);
  }
  if (flags & 0x02) {
    const std::uint8_t a = r.u8();
    if (a > static_cast<std::uint8_t>(ResetAction::kNotifyUser)) {
      return std::nullopt;
    }
    d.suggested = static_cast<ResetAction>(a);
  }
  if (flags & 0x04) d.congestion_wait_s = r.u16();
  if (!r.done()) return std::nullopt;
  return d;
}

// Fragment layout (16 bytes each):
//   byte 0: seq (hi nibble) | total (lo nibble), seq in [0, total), total >= 1
//   fragment 0: byte 1 = total frame length (<= 224), bytes 2.. payload
//   fragment k>0: bytes 1.. payload
namespace {
constexpr std::size_t kFirstPayload = 14;
constexpr std::size_t kRestPayload = 15;
}  // namespace

void AutnCodec::fragment_into(BytesView frame,
                              std::vector<std::array<std::uint8_t, 16>>& out) {
  PROF_ZONE("seedproto.fragment");
  PROF_BYTES(frame.size());
  if (frame.size() > kFirstPayload + 14 * kRestPayload) {
    throw std::length_error("AutnCodec: frame too large for 15 fragments");
  }
  std::size_t total = 1;
  if (frame.size() > kFirstPayload) {
    total = 1 + (frame.size() - kFirstPayload + kRestPayload - 1) / kRestPayload;
  }
  out.clear();
  std::size_t pos = 0;
  for (std::size_t seq = 0; seq < total; ++seq) {
    std::array<std::uint8_t, 16> frag{};
    frag[0] = static_cast<std::uint8_t>((seq << 4) | total);
    std::size_t off = 1;
    if (seq == 0) {
      frag[1] = static_cast<std::uint8_t>(frame.size());
      off = 2;
    }
    for (std::size_t i = off; i < 16 && pos < frame.size(); ++i) {
      frag[i] = frame[pos++];
    }
    out.push_back(frag);
  }
}

void AutnCodec::Reassembler::reset() {
  buffer_.clear();
  expected_total_ = 0;
  received_ = 0;
  last_len_ = 0;
  last_completed_total_ = 0;
}

std::optional<BytesView> AutnCodec::Reassembler::reject() {
  reset();
  last_rejected_ = true;
  return std::nullopt;
}

std::optional<BytesView> AutnCodec::Reassembler::feed_view(
    const std::array<std::uint8_t, 16>& autn) {
  PROF_ZONE("seedproto.reassemble");
  PROF_BYTES(autn.size());
  last_rejected_ = false;
  const std::uint8_t seq = autn[0] >> 4;
  const std::uint8_t total = autn[0] & 0x0f;
  if (total == 0 || seq >= total) return reject();
  if (received_ == 0) {
    if (seq != 0) {
      if (total == last_completed_total_ && seq == total - 1) {
        // Retransmit of the final fragment of the transfer that just
        // completed (its ACK was lost in flight): a benign duplicate,
        // not a malformed fragment. The completed frame's view stays
        // untouched.
        return std::nullopt;
      }
      return reject();
    }
    // Lazily drop the previous transfer's bytes (kept alive so the view
    // returned at its completion stayed valid). clear() keeps capacity, so
    // steady-state reassembly allocates nothing.
    buffer_.clear();
    expected_total_ = total;
    last_len_ = autn[1];
    // Audit hardening: the declared frame length must be *consistent with
    // the declared fragment count* — a `total`-fragment transfer only
    // exists for frames too long for total-1 fragments, and can never
    // exceed total fragments' capacity. A forged header that passes the
    // old upper-bound-only check could otherwise splice a short frame out
    // of a longer transfer's bytes.
    if (total > 1 &&
        last_len_ <= kFirstPayload + kRestPayload * (total - 2u)) {
      return reject();
    }
    if (last_len_ > kFirstPayload + kRestPayload * (total - 1u)) {
      return reject();
    }
    for (std::size_t i = 2; i < 16; ++i) buffer_.push_back(autn[i]);
  } else {
    if (seq == received_ - 1 && total == expected_total_) {
      // Duplicate of the fragment just consumed (retransmitted or
      // duplicated Authentication Request): ACKed upstream but ignored
      // here, keeping the in-progress transfer intact.
      return std::nullopt;
    }
    if (seq != received_ || total != expected_total_) return reject();
    for (std::size_t i = 1; i < 16; ++i) buffer_.push_back(autn[i]);
  }
  ++received_;
  if (received_ < expected_total_) return std::nullopt;
  if (last_len_ > buffer_.size()) return reject();
  // Transfer complete. The buffer is kept (cleared lazily at the start of
  // the next transfer) so the returned view stays valid until the next
  // feed_view()/reset() call.
  last_completed_total_ = expected_total_;
  expected_total_ = 0;
  received_ = 0;
  return BytesView(buffer_.data(), last_len_);
}

}  // namespace seed::proto
