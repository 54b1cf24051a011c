// Owning-buffer conveniences over the codec and crypto APIs, which write
// into caller scratch or hand out views. Tests that keep several wires
// alive at once (or compare them with EXPECT_EQ) copy them out here.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "crypto/security_context.h"
#include "nas/messages.h"
#include "seedproto/diag_payload.h"

namespace seed::test {

/// NAS wire bytes of `msg` in a buffer of their own.
inline Bytes nas_wire(const nas::NasMessage& msg) {
  Bytes wire;
  nas::encode_message_into(msg, wire);
  return wire;
}

/// Decodes `wire` when the reject reason does not matter.
inline std::optional<nas::NasMessage> nas_decode(BytesView wire) {
  nas::DecodeError err;
  return nas::decode_message(wire, &err);
}

/// Encoding of a seedproto payload (DiagInfo, FailureReport).
template <typename Payload>
Bytes payload_bytes(const Payload& p) {
  Writer w;
  p.encode_into(w);
  return std::move(w).take();
}

inline std::vector<std::array<std::uint8_t, 16>> autn_fragments(
    BytesView frame) {
  std::vector<std::array<std::uint8_t, 16>> frags;
  proto::AutnCodec::fragment_into(frame, frags);
  return frags;
}

/// Protected frame of `plaintext`; consumes one counter value for `dir`.
inline Bytes sealed(crypto::SecurityContext& ctx, BytesView plaintext,
                    crypto::Direction dir) {
  Bytes frame;
  ctx.protect_into(plaintext, dir, frame);
  return frame;
}

/// Copies a reassembled-frame view out of the reassembler's buffer.
inline std::optional<Bytes> owned(std::optional<BytesView> view) {
  if (!view) return std::nullopt;
  return Bytes(view->begin(), view->end());
}

}  // namespace seed::test
