#include "crypto/milenage.h"

#include <algorithm>

#include "obs/prof.h"

namespace seed::crypto {

namespace {

void xor_into(Block& a, const Block& b) {
  for (std::size_t i = 0; i < 16; ++i) a[i] ^= b[i];
}

// Cyclic rotation left by r bytes (every Milenage r is a multiple of 8 bits).
Block rotate(const Block& in, int r_bytes) {
  Block out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = in[(i + static_cast<std::size_t>(r_bytes)) % 16];
  }
  return out;
}

// TS 35.206 r2..r5 in bytes and c2..c5 (only the last byte is set).
constexpr int kR2 = 0, kR3 = 4, kR4 = 8, kR5 = 12;
constexpr std::uint8_t kC2 = 0x01, kC3 = 0x02, kC4 = 0x04, kC5 = 0x08;

}  // namespace

Milenage::Milenage(const Key128& k, const Key128& op) : k_(k) {
  const Aes128 aes(k);
  const Block e = aes.encrypt(op);
  for (std::size_t i = 0; i < 16; ++i) opc_[i] = e[i] ^ op[i];
}

Milenage::Milenage(const Key128& k, const Key128& opc, bool)
    : k_(k), opc_(opc) {}

Milenage Milenage::from_opc(const Key128& k, const Key128& opc) {
  return Milenage(k, opc, true);
}

Block Milenage::temp(const Aes128& aes, const Block& rand) const {
  Block t = rand;
  xor_into(t, opc_);
  aes.encrypt_block(t);
  return t;
}

Block Milenage::out1(const Aes128& aes, const Block& temp, const Sqn& sqn,
                     const Amf& amf) const {
  // IN1 = SQN || AMF || SQN || AMF.
  Block in1;
  std::copy(sqn.begin(), sqn.end(), in1.begin());
  std::copy(amf.begin(), amf.end(), in1.begin() + 6);
  std::copy(in1.begin(), in1.begin() + 8, in1.begin() + 8);
  xor_into(in1, opc_);
  // OUT1 = E_K(TEMP xor rot(IN1 xor OPc, r1) xor c1) xor OPc, r1 = 64,
  // c1 = 0.
  Block x = rotate(in1, 8);
  xor_into(x, temp);
  aes.encrypt_block(x);
  xor_into(x, opc_);
  return x;
}

Block Milenage::out(const Aes128& aes, const Block& temp, int r_bytes,
                    std::uint8_t c) const {
  Block x = temp;
  xor_into(x, opc_);
  x = rotate(x, r_bytes);
  x[15] ^= c;
  aes.encrypt_block(x);
  xor_into(x, opc_);
  return x;
}

F1Output Milenage::f1(const Block& rand, const Sqn& sqn,
                      const Amf& amf) const {
  PROF_ZONE("crypto.milenage");
  const Aes128 aes(k_);
  const Block o1 = out1(aes, temp(aes, rand), sqn, amf);
  F1Output r;
  std::copy(o1.begin(), o1.begin() + 8, r.mac_a.begin());
  std::copy(o1.begin() + 8, o1.end(), r.mac_s.begin());
  return r;
}

F2345Output Milenage::f2345(const Block& rand) const {
  PROF_ZONE("crypto.milenage");
  const Aes128 aes(k_);
  const Block t = temp(aes, rand);
  const Block o2 = out(aes, t, kR2, kC2);
  const Block o5 = out(aes, t, kR5, kC5);
  F2345Output r;
  std::copy(o2.begin() + 8, o2.end(), r.res.begin());
  r.ck = out(aes, t, kR3, kC3);
  r.ik = out(aes, t, kR4, kC4);
  std::copy(o2.begin(), o2.begin() + 6, r.ak.begin());
  std::copy(o5.begin(), o5.begin() + 6, r.ak_s.begin());
  return r;
}

AuthVector Milenage::auth_vector(const Block& rand, const Sqn& sqn,
                                 const Amf& amf) const {
  PROF_ZONE("crypto.milenage");
  const Aes128 aes(k_);
  const Block t = temp(aes, rand);
  const Block o1 = out1(aes, t, sqn, amf);
  const Block o2 = out(aes, t, kR2, kC2);  // AK || .. || RES
  AuthVector v;
  for (std::size_t i = 0; i < 6; ++i) v.autn[i] = sqn[i] ^ o2[i];
  std::copy(amf.begin(), amf.end(), v.autn.begin() + 6);
  std::copy(o1.begin(), o1.begin() + 8, v.autn.begin() + 8);
  std::copy(o2.begin() + 8, o2.end(), v.xres.begin());
  return v;
}

std::optional<Res> Milenage::check_autn(const Block& rand,
                                        const Block& autn) const {
  PROF_ZONE("crypto.milenage");
  const Aes128 aes(k_);
  const Block t = temp(aes, rand);
  const Block o2 = out(aes, t, kR2, kC2);  // AK || .. || RES
  Sqn sqn;
  for (std::size_t i = 0; i < 6; ++i) sqn[i] = autn[i] ^ o2[i];
  const Amf amf = {autn[6], autn[7]};
  const Block o1 = out1(aes, t, sqn, amf);
  if (!std::equal(o1.begin(), o1.begin() + 8, autn.begin() + 8)) {
    return std::nullopt;
  }
  Res res;
  std::copy(o2.begin() + 8, o2.end(), res.begin());
  return res;
}

}  // namespace seed::crypto
