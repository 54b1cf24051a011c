#include "crypto/aes.h"

#include <stdexcept>

namespace seed::crypto {

namespace {

constexpr std::array<std::uint8_t, 256> kSbox = [] {
  // Build the AES S-box at compile time: multiplicative inverse in
  // GF(2^8) followed by the affine transform.
  std::array<std::uint8_t, 256> sbox{};
  // Compute inverses via exponentiation tables on generator 3.
  std::array<std::uint8_t, 256> exp{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[static_cast<std::size_t>(i)] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by 3 in GF(2^8)
    std::uint8_t x2 = static_cast<std::uint8_t>(
        (x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
    x = static_cast<std::uint8_t>(x2 ^ x);
  }
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv = 0;
    // g^255 = 1, so reduce the exponent mod 255 (exp[] is only defined
    // for indices 0..254; without the reduction S(0x01) would be wrong).
    if (i != 0) {
      inv = exp[static_cast<std::size_t>(
          (255 - log[static_cast<std::size_t>(i)]) % 255)];
    }
    std::uint8_t s = inv;
    std::uint8_t res = s;
    for (int k = 0; k < 4; ++k) {
      s = static_cast<std::uint8_t>((s << 1) | (s >> 7));
      res ^= s;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(res ^ 0x63);
  }
  return sbox;
}();

constexpr std::array<std::uint8_t, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t v) {
  return static_cast<std::uint8_t>((v << 1) ^ ((v & 0x80) ? 0x1b : 0x00));
}

constexpr std::uint32_t rotr8(std::uint32_t w) { return (w >> 8) | (w << 24); }

// T-tables: kTe[0][x] is the MixColumns column (2, 1, 1, 3) * S(x) as a
// big-endian word, and kTe[r] is kTe[0] rotated right by 8r bits. One
// round of a column is then four lookups XORed with the round key, which
// fuses SubBytes, ShiftRows and MixColumns.
constexpr std::array<std::array<std::uint32_t, 256>, 4> kTe = [] {
  std::array<std::array<std::uint32_t, 256>, 4> te{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    std::uint32_t w = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
                      (std::uint32_t{s} << 8) | s3;
    for (auto& t : te) {
      t[x] = w;
      w = rotr8(w);
    }
  }
  return te;
}();

constexpr std::uint8_t byte_of(std::uint32_t w, int shift) {
  return static_cast<std::uint8_t>(w >> shift);
}

std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t{kSbox[byte_of(w, 24)]} << 24) |
         (std::uint32_t{kSbox[byte_of(w, 16)]} << 16) |
         (std::uint32_t{kSbox[byte_of(w, 8)]} << 8) | kSbox[byte_of(w, 0)];
}

std::uint32_t load_be(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

void store_be(std::uint32_t w, std::uint8_t* p) {
  p[0] = byte_of(w, 24);
  p[1] = byte_of(w, 16);
  p[2] = byte_of(w, 8);
  p[3] = byte_of(w, 0);
}

// One full round for the column that starts at state word `a`: ShiftRows
// takes row r from column (a + r) mod 4.
std::uint32_t round_column(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t rk) {
  return kTe[0][byte_of(a, 24)] ^ kTe[1][byte_of(b, 16)] ^
         kTe[2][byte_of(c, 8)] ^ kTe[3][byte_of(d, 0)] ^ rk;
}

// The last round has no MixColumns: ShiftRows, then plain S-box bytes.
std::uint32_t final_column(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t rk) {
  return sub_word((a & 0xff000000u) | (b & 0x00ff0000u) | (c & 0x0000ff00u) |
                  (d & 0x000000ffu)) ^
         rk;
}

}  // namespace

Aes128::Aes128(const Key128& key) {
  // Key expansion (FIPS-197 §5.2) on words.
  for (std::size_t i = 0; i < 4; ++i) round_keys_[i] = load_be(&key[4 * i]);
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      temp = sub_word((temp << 8) | (temp >> 24)) ^
             (std::uint32_t{kRcon[i / 4 - 1]} << 24);
    }
    round_keys_[i] = round_keys_[i - 4] ^ temp;
  }
}

void Aes128::encrypt_block(Block& block) const {
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_be(&block[0]) ^ rk[0];
  std::uint32_t s1 = load_be(&block[4]) ^ rk[1];
  std::uint32_t s2 = load_be(&block[8]) ^ rk[2];
  std::uint32_t s3 = load_be(&block[12]) ^ rk[3];
  for (int round = 1; round <= 9; ++round) {
    rk += 4;
    const std::uint32_t t0 = round_column(s0, s1, s2, s3, rk[0]);
    const std::uint32_t t1 = round_column(s1, s2, s3, s0, rk[1]);
    const std::uint32_t t2 = round_column(s2, s3, s0, s1, rk[2]);
    const std::uint32_t t3 = round_column(s3, s0, s1, s2, rk[3]);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  store_be(final_column(s0, s1, s2, s3, rk[0]), &block[0]);
  store_be(final_column(s1, s2, s3, s0, rk[1]), &block[4]);
  store_be(final_column(s2, s3, s0, s1, rk[2]), &block[8]);
  store_be(final_column(s3, s0, s1, s2, rk[3]), &block[12]);
}

Block Aes128::encrypt(const Block& block) const {
  Block out = block;
  encrypt_block(out);
  return out;
}

Block to_block(BytesView data) {
  if (data.size() != 16) throw std::invalid_argument("to_block: need 16 bytes");
  Block b;
  for (std::size_t i = 0; i < 16; ++i) b[i] = data[i];
  return b;
}

Key128 to_key(BytesView data) {
  if (data.size() != 16) throw std::invalid_argument("to_key: need 16 bytes");
  Key128 k;
  for (std::size_t i = 0; i < 16; ++i) k[i] = data[i];
  return k;
}

}  // namespace seed::crypto
