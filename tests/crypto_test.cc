#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/ctr.h"
#include "crypto/milenage.h"
#include "crypto/security_context.h"
#include "wire_helpers.h"

namespace seed::crypto {
namespace {

Key128 key_from_hex(std::string_view h) { return to_key(from_hex(h)); }
Block block_from_hex(std::string_view h) { return to_block(from_hex(h)); }

std::string block_hex(const Block& b) {
  return to_hex(Bytes(b.begin(), b.end()));
}

// Plain AES-CMAC: the segmented CMAC with an empty header.
Block cmac(const Key128& key, BytesView message) {
  const Aes128 aes(key);
  Block k1, k2;
  cmac_subkeys(aes, k1, k2);
  return aes_cmac_seg(aes, k1, k2, {}, message);
}

std::uint32_t eia2(const Key128& key, std::uint32_t count,
                   std::uint8_t bearer, std::uint8_t direction,
                   BytesView message) {
  const Aes128 aes(key);
  Block k1, k2;
  cmac_subkeys(aes, k1, k2);
  return eia2_mac(aes, k1, k2, count, bearer, direction, message);
}

Bytes ctr(const Key128& key, const Block& iv, BytesView data) {
  Bytes out(data.size());
  aes_ctr_xor(Aes128(key), iv, data, out.data());
  return out;
}

Bytes eea2(const Key128& key, std::uint32_t count, std::uint8_t bearer,
           std::uint8_t direction, BytesView data) {
  Bytes out(data.size());
  eea2_crypt_into(Aes128(key), count, bearer, direction, data, out.data());
  return out;
}

// ---------------------------------------------------------------- AES-128

TEST(Aes128, Fips197Vector) {
  // FIPS-197 Appendix C.1.
  const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
  const Block out = aes.encrypt(block_from_hex("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(block_hex(out), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

struct EcbVector {
  const char* plaintext;
  const char* ciphertext;
};

// Print a vector as its plaintext so the test names stay the same from run
// to run; the default printer dumps the two pointers, which move with ASLR.
void PrintTo(const EcbVector& v, std::ostream* os) { *os << v.plaintext; }

// NIST SP 800-38A F.1.1 (AES-128 ECB), key 2b7e1516...
class AesEcbTest : public ::testing::TestWithParam<EcbVector> {};

TEST_P(AesEcbTest, Sp80038aEcb) {
  const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block out = aes.encrypt(block_from_hex(GetParam().plaintext));
  EXPECT_EQ(block_hex(out), GetParam().ciphertext);
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, AesEcbTest,
    ::testing::Values(
        EcbVector{"6bc1bee22e409f96e93d7e117393172a",
                  "3ad77bb40d7a3660a89ecaf32466ef97"},
        EcbVector{"ae2d8a571e03ac9c9eb76fac45af8e51",
                  "f5d3d58503b9699de785895a96fdbaaf"},
        EcbVector{"30c81c46a35ce411e5fbc1191a0a52ef",
                  "43b1cd7f598ece23881b00e3ed030688"},
        EcbVector{"f69f2445df4f9b17ad2b417be66c3710",
                  "7b0c785e27e8ad3f8223207104725dd4"}));

TEST(Aes128, EncryptInPlaceMatchesCopy) {
  const Aes128 aes(key_from_hex("00000000000000000000000000000000"));
  Block b = block_from_hex("80000000000000000000000000000000");
  const Block copy = aes.encrypt(b);
  aes.encrypt_block(b);
  EXPECT_EQ(b, copy);
}

TEST(Aes128, ToBlockValidatesLength) {
  EXPECT_THROW(to_block(from_hex("0011")), std::invalid_argument);
  EXPECT_THROW(to_key(from_hex("001122")), std::invalid_argument);
}

// ---------------------------------------------------------------- AES-CMAC

TEST(Cmac, Rfc4493EmptyMessage) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block tag = cmac(k, {});
  EXPECT_EQ(block_hex(tag), "bb1d6929e95937287fa37d129b756746");
}

TEST(Cmac, Rfc4493SixteenBytes) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes m = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(block_hex(cmac(k, m)), "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(Cmac, Rfc4493FortyBytes) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes m = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411");
  EXPECT_EQ(block_hex(cmac(k, m)), "dfa66747de9ae63030ca32611497c827");
}

TEST(Cmac, Rfc4493SixtyFourBytes) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes m = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(block_hex(cmac(k, m)), "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Cmac, DifferentMessagesDifferentTags) {
  const Key128 k = key_from_hex("000102030405060708090a0b0c0d0e0f");
  EXPECT_NE(cmac(k, from_hex("00")), cmac(k, from_hex("01")));
  EXPECT_NE(cmac(k, from_hex("00")), cmac(k, from_hex("0000")));
}

TEST(Cmac, SegmentedMatchesConcatenated) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes128 aes(k);
  Block k1, k2;
  cmac_subkeys(aes, k1, k2);
  for (std::size_t hdr_len : {0u, 1u, 8u, 16u, 20u}) {
    for (std::size_t msg_len : {0u, 1u, 7u, 15u, 16u, 17u, 40u}) {
      Bytes hdr(hdr_len), msg(msg_len);
      for (std::size_t i = 0; i < hdr_len; ++i)
        hdr[i] = static_cast<std::uint8_t>(i + 1);
      for (std::size_t i = 0; i < msg_len; ++i)
        msg[i] = static_cast<std::uint8_t>(0xc0 + i);
      Bytes cat = hdr;
      cat.insert(cat.end(), msg.begin(), msg.end());
      EXPECT_EQ(aes_cmac_seg(aes, k1, k2, hdr, msg), cmac(k, cat))
          << "hdr " << hdr_len << " msg " << msg_len;
    }
  }
}

TEST(Eia2, MacDependsOnAllInputs) {
  const Key128 k = key_from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes m = from_hex("deadbeef");
  const std::uint32_t base = eia2(k, 1, 2, 0, m);
  EXPECT_NE(base, eia2(k, 2, 2, 0, m));   // count
  EXPECT_NE(base, eia2(k, 1, 3, 0, m));   // bearer
  EXPECT_NE(base, eia2(k, 1, 2, 1, m));   // direction
  EXPECT_NE(base, eia2(k, 1, 2, 0, from_hex("deadbeee")));  // payload
}

TEST(Eia2, IsCmacOverTs33401Header) {
  // TS 33.401 B.2.3: CMAC over COUNT || BEARER(5)|DIRECTION(1)|0s ||
  // 3 zero bytes || message, truncated to its leading 32 bits.
  const Key128 k = key_from_hex("000102030405060708090a0b0c0d0e0f");
  for (std::size_t len : {0u, 1u, 8u, 15u, 16u, 17u, 100u}) {
    Bytes m(len, 0x5a);
    for (std::size_t i = 0; i < len; ++i) m[i] ^= static_cast<std::uint8_t>(i);
    Bytes cat = from_hex("0000002a3c000000");  // count 42, bearer 7, dir 1
    cat.insert(cat.end(), m.begin(), m.end());
    const Block tag = cmac(k, cat);
    const std::uint32_t want = (std::uint32_t{tag[0]} << 24) |
                               (std::uint32_t{tag[1]} << 16) |
                               (std::uint32_t{tag[2]} << 8) | tag[3];
    EXPECT_EQ(eia2(k, 42, 7, 1, m), want) << "len " << len;
  }
}

// ---------------------------------------------------------------- AES-CTR

TEST(Ctr, Sp80038aCtrFirstBlock) {
  // NIST SP 800-38A F.5.1.
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block iv = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(ctr(k, iv, pt)), "874d6191b620e3261bef6864990db6ce");
}

TEST(Ctr, Sp80038aCtrFourBlocks) {
  const Key128 k = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block iv = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(ctr(k, iv, pt)),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(Ctr, RoundTrip) {
  const Key128 k = key_from_hex("00112233445566778899aabbccddeeff");
  const Bytes pt = to_bytes("SEED failure report: DNS down at 10.0.0.5");
  const Bytes ct = eea2(k, 77, 3, 1, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(eea2(k, 77, 3, 1, ct), pt);
}

TEST(Ctr, PartialBlockLengths) {
  const Key128 k = key_from_hex("00112233445566778899aabbccddeeff");
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 100u}) {
    Bytes pt(len, 0xa5);
    const Bytes ct = eea2(k, 5, 1, 0, pt);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(eea2(k, 5, 1, 0, ct), pt);
  }
}

TEST(Ctr, CountChangesKeystream) {
  const Key128 k = key_from_hex("00112233445566778899aabbccddeeff");
  const Bytes pt(32, 0);
  EXPECT_NE(eea2(k, 1, 0, 0, pt), eea2(k, 2, 0, 0, pt));
}

// ---------------------------------------------------------------- Milenage

TEST(Milenage, Ts35207TestSet1) {
  // 3GPP TS 35.207 §4 test set 1.
  const Key128 k = key_from_hex("465b5ce8b199b49faa5f0a2ee238a6bc");
  const Block rand = block_from_hex("23553cbe9637a89d218ae64dae47bf35");
  const Key128 op = key_from_hex("cdc202d5123e20f62b6d676ac72cb318");
  const std::array<std::uint8_t, 6> sqn = {0xff, 0x9b, 0xb4, 0xd0, 0xb6, 0x07};
  const std::array<std::uint8_t, 2> amf = {0xb9, 0xb9};

  const Milenage m(k, op);
  EXPECT_EQ(to_hex(Bytes(m.opc().begin(), m.opc().end())),
            "cd63cb71954a9f4e48a5994e37a02baf");

  const MilenageOutput out = m.compute(rand, sqn, amf);
  EXPECT_EQ(to_hex(Bytes(out.mac_a.begin(), out.mac_a.end())),
            "4a9ffac354dfafb3");
  EXPECT_EQ(to_hex(Bytes(out.mac_s.begin(), out.mac_s.end())),
            "01cfaf9ec4e871e9");
  EXPECT_EQ(to_hex(Bytes(out.res.begin(), out.res.end())), "a54211d5e3ba50bf");
  EXPECT_EQ(block_hex(out.ck), "b40ba9a3c58b2a05bbf0d987b21bf8cb");
  EXPECT_EQ(block_hex(out.ik), "f769bcd751044604127672711c6d3441");
  EXPECT_EQ(to_hex(Bytes(out.ak.begin(), out.ak.end())), "aa689c648370");
  EXPECT_EQ(to_hex(Bytes(out.ak_s.begin(), out.ak_s.end())), "451e8beca43b");
}

TEST(Milenage, FromOpcMatchesDerived) {
  const Key128 k = key_from_hex("465b5ce8b199b49faa5f0a2ee238a6bc");
  const Key128 op = key_from_hex("cdc202d5123e20f62b6d676ac72cb318");
  const Milenage a(k, op);
  const Milenage b = Milenage::from_opc(k, a.opc());
  const Block rand = block_from_hex("23553cbe9637a89d218ae64dae47bf35");
  const std::array<std::uint8_t, 6> sqn{};
  const std::array<std::uint8_t, 2> amf{};
  EXPECT_EQ(a.compute(rand, sqn, amf).res, b.compute(rand, sqn, amf).res);
}

TEST(Milenage, AutnStructure) {
  const Key128 k = key_from_hex("465b5ce8b199b49faa5f0a2ee238a6bc");
  const Key128 op = key_from_hex("cdc202d5123e20f62b6d676ac72cb318");
  const Milenage m(k, op);
  const Block rand = block_from_hex("23553cbe9637a89d218ae64dae47bf35");
  const std::array<std::uint8_t, 6> sqn = {0xff, 0x9b, 0xb4, 0xd0, 0xb6, 0x07};
  const std::array<std::uint8_t, 2> amf = {0xb9, 0xb9};
  const auto out = m.compute(rand, sqn, amf);
  const Block autn = m.build_autn(out, sqn, amf);
  // SQN xor AK recovers SQN with the same AK.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(autn[i] ^ out.ak[i]), sqn[i]);
  }
  EXPECT_EQ(autn[6], 0xb9);
  EXPECT_EQ(autn[7], 0xb9);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(autn[8 + i], out.mac_a[i]);
}

// ------------------------------------------------------- SecurityContext

TEST(SecurityContext, ProtectUnprotectRoundTrip) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  const Bytes msg = to_bytes("cause=27 config=DNN:internet.new");
  const Bytes frame = test::sealed(tx, msg, Direction::kDownlink);
  EXPECT_GE(frame.size(), msg.size() + SecurityContext::kOverhead);
  Bytes got;
  ASSERT_TRUE(rx.unprotect_into(frame, Direction::kDownlink, got));
  EXPECT_EQ(got, msg);
}

TEST(SecurityContext, RejectsTamperedPayload) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  Bytes frame = test::sealed(tx, to_bytes("hello"), Direction::kUplink);
  Bytes plain;
  frame[5] ^= 0x01;
  EXPECT_FALSE(rx.unprotect_into(frame, Direction::kUplink, plain));
  // A failed MAC check does not advance the replay window.
  frame[5] ^= 0x01;
  EXPECT_TRUE(rx.unprotect_into(frame, Direction::kUplink, plain));
  EXPECT_EQ(plain, to_bytes("hello"));
}

TEST(SecurityContext, RejectsReplay) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  const Bytes frame = test::sealed(tx, to_bytes("once"), Direction::kUplink);
  Bytes plain;
  EXPECT_TRUE(rx.unprotect_into(frame, Direction::kUplink, plain));
  EXPECT_FALSE(rx.unprotect_into(frame, Direction::kUplink, plain));
}

TEST(SecurityContext, RejectsWrongKey) {
  SecurityContext tx(key_from_hex("0123456789abcdef0123456789abcdef"), 7);
  SecurityContext rx(key_from_hex("1123456789abcdef0123456789abcdef"), 7);
  const Bytes frame =
      test::sealed(tx, to_bytes("secret"), Direction::kDownlink);
  Bytes plain;
  EXPECT_FALSE(rx.unprotect_into(frame, Direction::kDownlink, plain));
}

TEST(SecurityContext, RejectsTruncatedFrame) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext rx(k, 7);
  Bytes plain;
  EXPECT_FALSE(rx.unprotect_into(from_hex("0011"), Direction::kUplink, plain));
}

TEST(SecurityContext, DirectionsHaveIndependentCounters) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext a(k, 7);
  SecurityContext b(k, 7);
  // a sends downlink, b sends uplink; both receive fine in both orders.
  const Bytes f1 = test::sealed(a, to_bytes("dl-0"), Direction::kDownlink);
  const Bytes f2 = test::sealed(b, to_bytes("ul-0"), Direction::kUplink);
  Bytes plain;
  EXPECT_TRUE(b.unprotect_into(f1, Direction::kDownlink, plain));
  EXPECT_TRUE(a.unprotect_into(f2, Direction::kUplink, plain));
  EXPECT_EQ(a.tx_count(Direction::kDownlink), 1u);
  EXPECT_EQ(b.tx_count(Direction::kUplink), 1u);
}

TEST(SecurityContext, CounterAdvancesAcrossMessages) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  // One frame and one plaintext buffer, reused across every message.
  Bytes frame;
  Bytes plain;
  for (int i = 0; i < 20; ++i) {
    const Bytes msg = to_bytes("m" + std::to_string(i));
    tx.protect_into(msg, Direction::kUplink, frame);
    ASSERT_TRUE(rx.unprotect_into(frame, Direction::kUplink, plain))
        << "message " << i;
    EXPECT_EQ(plain, msg) << "message " << i;
  }
  EXPECT_EQ(tx.tx_count(Direction::kUplink), 20u);
}

TEST(SecurityContext, OutOfOrderOlderFrameRejected) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  const Bytes f0 = test::sealed(tx, to_bytes("first"), Direction::kDownlink);
  const Bytes f1 = test::sealed(tx, to_bytes("second"), Direction::kDownlink);
  Bytes plain;
  EXPECT_TRUE(rx.unprotect_into(f1, Direction::kDownlink, plain));
  EXPECT_FALSE(rx.unprotect_into(f0, Direction::kDownlink, plain));
}

TEST(Ctr, CryptIntoMatchesAllocatingVariant) {
  // EEA2 against the scalar reference CTR (the allocating oracle) over
  // the TS 33.401 B.1.3 counter block: count 9, bearer 7, direction 0.
  const Key128 k = key_from_hex("00112233445566778899aabbccddeeff");
  const Aes128 aes(k);
  const Block iv = block_from_hex("0000000938000000" "0000000000000000");
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1500u}) {
    Bytes pt(len);
    for (std::size_t i = 0; i < len; ++i) pt[i] = static_cast<std::uint8_t>(i);
    const Bytes want = aes_ctr_ref(k, iv, pt);
    Bytes out(len);
    eea2_crypt_into(aes, 9, 7, 0, pt, out.data());
    EXPECT_EQ(out, want) << "len " << len;
    // In-place (out aliases in) must match too.
    Bytes inplace = pt;
    eea2_crypt_into(aes, 9, 7, 0, inplace, inplace.data());
    EXPECT_EQ(inplace, want) << "len " << len;
  }
}

TEST(SecurityContext, ProtectIntoReusesFrameCapacity) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  Bytes frame;
  frame.reserve(256);
  const std::uint8_t* storage = frame.data();
  const Bytes msg(64, 0xab);
  for (int i = 0; i < 50; ++i) {
    tx.protect_into(msg, Direction::kDownlink, frame);
    EXPECT_EQ(frame.data(), storage) << "iteration " << i;
  }
}

TEST(SecurityContext, EmptyPlaintext) {
  const Key128 k = key_from_hex("0123456789abcdef0123456789abcdef");
  SecurityContext tx(k, 7);
  SecurityContext rx(k, 7);
  const Bytes frame = test::sealed(tx, {}, Direction::kUplink);
  Bytes got = to_bytes("stale");
  ASSERT_TRUE(rx.unprotect_into(frame, Direction::kUplink, got));
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace seed::crypto
