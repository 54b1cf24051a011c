// Milenage authentication algorithm set (3GPP TS 35.205/35.206).
//
// Implements f1 (MAC-A), f1* (MAC-S), f2 (RES), f3 (CK), f4 (IK),
// f5 (AK), f5* (AK-S) — the functions the SIM and AUSF run during 5G-AKA.
// SEED reuses this machinery: the DFlag-carrying Authentication Request is
// recognized *before* Milenage verification (reserved RAND = FF..FF).
//
// Each side of 5G-AKA makes one call per authentication: the core's
// auth_vector() and the SIM's check_autn(). Both expand K once, compute
// TEMP = E_K(RAND xor OPc) once, and run only the output blocks they use.
// f1() and f2345() are the TS 35.206 functions with every output.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace seed::crypto {

using Sqn = std::array<std::uint8_t, 6>;
using Amf = std::array<std::uint8_t, 2>;
using Res = std::array<std::uint8_t, 8>;

/// f1 and f1*: they depend on RAND, SQN and AMF.
struct F1Output {
  std::array<std::uint8_t, 8> mac_a;  // f1
  std::array<std::uint8_t, 8> mac_s;  // f1*
};

/// f2, f3, f4, f5 and f5*: they depend on RAND alone.
struct F2345Output {
  Res res;                           // f2
  Block ck;                          // f3
  Block ik;                          // f4
  std::array<std::uint8_t, 6> ak;    // f5
  std::array<std::uint8_t, 6> ak_s;  // f5*
};

/// What the core sends (AUTN, with RAND) and what it keeps (XRES).
struct AuthVector {
  Block autn;  // (SQN xor AK) || AMF || MAC-A
  Res xres;
};

class Milenage {
 public:
  /// `op` is the operator variant configuration field; OPc is derived.
  Milenage(const Key128& k, const Key128& op);

  /// Constructs directly from a precomputed OPc.
  static Milenage from_opc(const Key128& k, const Key128& opc);

  const Key128& opc() const { return opc_; }

  F1Output f1(const Block& rand, const Sqn& sqn, const Amf& amf) const;
  F2345Output f2345(const Block& rand) const;

  /// Network side: AUTN and XRES for (RAND, SQN, AMF).
  AuthVector auth_vector(const Block& rand, const Sqn& sqn,
                         const Amf& amf) const;

  /// SIM side: recovers SQN from AUTN with AK, checks MAC-A, and returns
  /// RES; nullopt when MAC-A does not match.
  std::optional<Res> check_autn(const Block& rand, const Block& autn) const;

 private:
  Milenage(const Key128& k, const Key128& opc, bool /*from_opc_tag*/);

  /// E_K(RAND xor OPc), the input every function starts from.
  Block temp(const Aes128& aes, const Block& rand) const;
  /// OUT1 of f1/f1*.
  Block out1(const Aes128& aes, const Block& temp, const Sqn& sqn,
             const Amf& amf) const;
  /// OUT2..OUT5: E_K(rot(TEMP xor OPc, r) xor c) xor OPc.
  Block out(const Aes128& aes, const Block& temp, int r_bytes,
            std::uint8_t c) const;

  // K, not its expanded schedule: a SIM holds one Milenage, and the
  // schedule would add 160 bytes to every UE.
  Key128 k_;
  Key128 opc_;
};

}  // namespace seed::crypto
