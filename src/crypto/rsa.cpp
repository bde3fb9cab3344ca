#include "crypto/rsa.h"

#include <algorithm>
#include <stdexcept>

#include "bignum/prime.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"

namespace p2drm {
namespace crypto {

using bignum::BigInt;

namespace {

void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v >> 24));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t GetU32(const std::vector<std::uint8_t>& in, std::size_t* pos) {
  if (*pos + 4 > in.size()) throw std::out_of_range("RSA deserialize: truncated");
  std::uint32_t v = (static_cast<std::uint32_t>(in[*pos]) << 24) |
                    (static_cast<std::uint32_t>(in[*pos + 1]) << 16) |
                    (static_cast<std::uint32_t>(in[*pos + 2]) << 8) |
                    static_cast<std::uint32_t>(in[*pos + 3]);
  *pos += 4;
  return v;
}

std::vector<std::uint8_t> GetBlob(const std::vector<std::uint8_t>& in,
                                  std::size_t* pos) {
  std::uint32_t len = GetU32(in, pos);
  if (*pos + len > in.size()) throw std::out_of_range("RSA deserialize: truncated");
  std::vector<std::uint8_t> blob(in.begin() + *pos, in.begin() + *pos + len);
  *pos += len;
  return blob;
}

// A non-negative BigInt as 64-bit limbs in scratch.
bignum::LimbSpan PackExponent(const BigInt& e, bignum::Scratch* scratch) {
  const std::vector<std::uint32_t>& e32 = e.limbs();
  const std::size_t n = bignum::PackedWidth(e32.size());
  bignum::Limb* out = scratch->Alloc(n);
  bignum::Pack32To64(out, n, e32.data(), e32.size());
  return bignum::LimbSpan{out, n};
}

// Garner's recombination: m = m2 + q * (qinv * (m1 - m2) mod p), from
// m1 = c^dp mod p and m2 = c^dq mod q.
BigInt CrtCombine(const RsaPrivateKey& priv, const BigInt& m1,
                  const BigInt& m2) {
  BigInt h = priv.qinv.MulMod(m1.SubMod(m2.Mod(priv.p), priv.p), priv.p);
  return m2 + h * priv.q;
}

}  // namespace

std::vector<std::uint8_t> RsaPublicKey::Serialize() const {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> nb = n.ToBytes();
  std::vector<std::uint8_t> eb = e.ToBytes();
  PutU32(&out, static_cast<std::uint32_t>(nb.size()));
  out.insert(out.end(), nb.begin(), nb.end());
  PutU32(&out, static_cast<std::uint32_t>(eb.size()));
  out.insert(out.end(), eb.begin(), eb.end());
  return out;
}

RsaPublicKey RsaPublicKey::Deserialize(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  std::vector<std::uint8_t> nb = GetBlob(bytes, &pos);
  std::vector<std::uint8_t> eb = GetBlob(bytes, &pos);
  return RsaPublicKey{BigInt::FromBytes(nb), BigInt::FromBytes(eb)};
}

Digest256 RsaPublicKey::Fingerprint() const {
  return Sha256::Hash(Serialize());
}

RsaPrivateKey GenerateRsaKey(std::size_t modulus_bits,
                             bignum::RandomSource* rng) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("GenerateRsaKey: modulus_bits must be even, >= 128");
  }
  const BigInt e(65537);
  const int kMrRounds = 24;
  std::size_t half = modulus_bits / 2;
  while (true) {
    BigInt p = bignum::GenerateRsaPrime(half, e, kMrRounds, rng);
    BigInt q = bignum::GenerateRsaPrime(half, e, kMrRounds, rng);
    if (p == q) continue;
    BigInt n = p * q;
    if (n.BitLength() != modulus_bits) continue;  // rare; retry
    BigInt p1 = p - BigInt(1);
    BigInt q1 = q - BigInt(1);
    BigInt phi = p1 * q1;
    BigInt d = e.InvMod(phi);
    RsaPrivateKey key;
    key.n = n;
    key.e = e;
    key.d = d;
    key.p = p;
    key.q = q;
    key.dp = d % p1;
    key.dq = d % q1;
    key.qinv = q.InvMod(p);
    key.Precompute();
    return key;
  }
}

BigInt RsaPublicOp(const RsaPublicKey& pub, const BigInt& m) {
  if (m.IsNegative() || m.Compare(pub.n) >= 0) {
    throw std::domain_error("RsaPublicOp: message out of range");
  }
  return m.PowMod(pub.e, pub.n);
}

BigInt RsaPrivateOp(const RsaPrivateKey& priv, const BigInt& c) {
  if (c.IsNegative() || c.Compare(priv.n) >= 0) {
    throw std::domain_error("RsaPrivateOp: ciphertext out of range");
  }
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv*(m1-m2) mod p,
  // m = m2 + h*q. With the key's cached p/q contexts both halves run as
  // one bignum::PowModCrtPair, which on an IFMA CPU interleaves the two
  // exponentiations in one loop (two PowModLimbs calls elsewhere).
  // Without the cache BigInt::PowMod falls back to its thread-local MRU
  // context cache (Montgomery::CachedFor), which still avoids the
  // per-call R^2 mod N rebuild but pays a lookup per exponentiation.
  BigInt m1, m2;
  if (priv.crt != nullptr) {
    const bignum::Montgomery& mont_p = priv.crt->mont_p;
    const bignum::Montgomery& mont_q = priv.crt->mont_q;
    bignum::Scratch* scratch = &bignum::TlsScratch();
    bignum::Scratch::Frame frame(scratch);
    bignum::Limb* base_p = scratch->Alloc(mont_p.width());
    bignum::Limb* base_q = scratch->Alloc(mont_q.width());
    mont_p.Load(base_p, c.Mod(priv.p));
    mont_q.Load(base_q, c.Mod(priv.q));
    const bignum::LimbSpan dp = PackExponent(priv.dp, scratch);
    const bignum::LimbSpan dq = PackExponent(priv.dq, scratch);
    bignum::PowModCrtPair(mont_p, mont_q, base_p, base_p, dp, base_q, base_q,
                          dq, scratch);
    m1 = mont_p.Unload(base_p);
    m2 = mont_q.Unload(base_q);
  } else {
    m1 = c.Mod(priv.p).PowMod(priv.dp, priv.p);
    m2 = c.Mod(priv.q).PowMod(priv.dq, priv.q);
  }
  return CrtCombine(priv, m1, m2);
}

namespace {

// MGF1: out = H(seed || 0) || H(seed || 1) || ... truncated to out_len,
// counters 32-bit big-endian. The seed is absorbed once; each counter
// hashes from a copy of that prefix state.
void Mgf1Into(const std::uint8_t* seed, std::size_t seed_len,
              std::uint8_t* out, std::size_t out_len) {
  Sha256 prefix;
  prefix.Update(seed, seed_len);
  std::size_t pos = 0;
  for (std::uint32_t counter = 0; pos < out_len; ++counter) {
    const std::uint8_t be[4] = {static_cast<std::uint8_t>(counter >> 24),
                                static_cast<std::uint8_t>(counter >> 16),
                                static_cast<std::uint8_t>(counter >> 8),
                                static_cast<std::uint8_t>(counter)};
    Sha256 h = prefix;
    h.Update(be, sizeof(be));
    const Digest256 d = h.Final();
    const std::size_t take = std::min<std::size_t>(d.size(), out_len - pos);
    std::copy(d.begin(), d.begin() + take, out + pos);
    pos += take;
  }
}

}  // namespace

std::vector<std::uint8_t> Mgf1Sha256(const std::vector<std::uint8_t>& seed,
                                     std::size_t out_len) {
  std::vector<std::uint8_t> out(out_len);
  Mgf1Into(seed.data(), seed.size(), out.data(), out_len);
  return out;
}

BigInt FdhHash(const std::vector<std::uint8_t>& msg, const RsaPublicKey& pub) {
  const Digest256 seed = Sha256::Hash(msg);
  std::vector<std::uint8_t> expanded(pub.ModulusBytes());
  Mgf1Into(seed.data(), seed.size(), expanded.data(), expanded.size());
  expanded[0] = 0;  // force representative < 2^(8(k-1)) <= n
  return BigInt::FromBytes(expanded);
}

std::vector<std::uint8_t> RsaSignFdh(const RsaPrivateKey& priv,
                                     const std::vector<std::uint8_t>& msg) {
  RsaPublicKey pub = priv.PublicKey();
  BigInt m = FdhHash(msg, pub);
  BigInt s = RsaPrivateOp(priv, m);
  return s.ToBytesPadded(pub.ModulusBytes());
}

std::vector<std::vector<std::uint8_t>> RsaSignFdhMany(
    const RsaPrivateKey& priv,
    const std::vector<std::vector<std::uint8_t>>& msgs) {
  std::vector<std::vector<std::uint8_t>> out(msgs.size());
  const bool mb8 = priv.crt != nullptr && priv.crt->mont_p.HasMb8() &&
                   priv.crt->mont_q.HasMb8();
  const RsaPublicKey pub = priv.PublicKey();
  for (std::size_t begin = 0; begin < msgs.size();
       begin += bignum::ifma::kLanes) {
    const std::size_t lanes =
        std::min<std::size_t>(bignum::ifma::kLanes, msgs.size() - begin);
    if (!mb8 || lanes < kMb8MinLanes) {
      for (std::size_t i = begin; i < begin + lanes; ++i) {
        out[i] = RsaSignFdh(priv, msgs[i]);
      }
      continue;
    }
    // One pass per CRT half: lane l holds FdhHash(msgs[begin + l]) mod p
    // (mod q), and every lane shares dp (dq).
    const bignum::Montgomery& mont_p = priv.crt->mont_p;
    const bignum::Montgomery& mont_q = priv.crt->mont_q;
    const std::size_t wp = mont_p.width();
    const std::size_t wq = mont_q.width();
    bignum::Scratch* scratch = &bignum::TlsScratch();
    bignum::Scratch::Frame frame(scratch);
    bignum::Limb* half_p = scratch->Alloc(lanes * wp);
    bignum::Limb* half_q = scratch->Alloc(lanes * wq);
    for (std::size_t l = 0; l < lanes; ++l) {
      const BigInt m = FdhHash(msgs[begin + l], pub);
      mont_p.Load(half_p + l * wp, m.Mod(priv.p));
      mont_q.Load(half_q + l * wq, m.Mod(priv.q));
    }
    mont_p.PowModMb8(half_p, half_p, lanes, PackExponent(priv.dp, scratch),
                     scratch);
    mont_q.PowModMb8(half_q, half_q, lanes, PackExponent(priv.dq, scratch),
                     scratch);
    for (std::size_t l = 0; l < lanes; ++l) {
      const BigInt s = CrtCombine(priv, mont_p.Unload(half_p + l * wp),
                                  mont_q.Unload(half_q + l * wq));
      out[begin + l] = s.ToBytesPadded(pub.ModulusBytes());
    }
  }
  return out;
}

bool RsaVerifyFdh(const RsaPublicKey& pub, const std::vector<std::uint8_t>& msg,
                  const std::vector<std::uint8_t>& sig) {
  if (sig.size() != pub.ModulusBytes()) return false;
  BigInt s = BigInt::FromBytes(sig);
  if (s.Compare(pub.n) >= 0) return false;
  BigInt recovered = RsaPublicOp(pub, s);
  return recovered == FdhHash(msg, pub);
}

std::vector<std::uint8_t> HybridCiphertext::Serialize() const {
  std::vector<std::uint8_t> out;
  PutU32(&out, static_cast<std::uint32_t>(encapsulated.size()));
  out.insert(out.end(), encapsulated.begin(), encapsulated.end());
  PutU32(&out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

HybridCiphertext HybridCiphertext::Deserialize(
    const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  HybridCiphertext ct;
  ct.encapsulated = GetBlob(bytes, &pos);
  ct.body = GetBlob(bytes, &pos);
  if (pos + 32 != bytes.size()) {
    throw std::out_of_range("HybridCiphertext: bad tag length");
  }
  std::copy(bytes.begin() + pos, bytes.end(), ct.tag.begin());
  return ct;
}

namespace {

struct DerivedKeys {
  std::array<std::uint8_t, 32> enc_key;
  std::vector<std::uint8_t> mac_key;
  std::array<std::uint8_t, 12> nonce;
};

DerivedKeys DeriveKeys(const BigInt& shared, std::size_t width) {
  std::vector<std::uint8_t> ikm = shared.ToBytesPadded(width);
  Digest256 prk = HkdfExtract({}, ikm);
  std::vector<std::uint8_t> info = {'p', '2', 'd', 'r', 'm', '-', 'k', 'e', 'm'};
  std::vector<std::uint8_t> okm = HkdfExpand(prk, info, 32 + 32 + 12);
  DerivedKeys keys;
  std::copy(okm.begin(), okm.begin() + 32, keys.enc_key.begin());
  keys.mac_key.assign(okm.begin() + 32, okm.begin() + 64);
  std::copy(okm.begin() + 64, okm.end(), keys.nonce.begin());
  return keys;
}

}  // namespace

HybridCiphertext RsaHybridEncrypt(const RsaPublicKey& pub,
                                  const std::vector<std::uint8_t>& plaintext,
                                  bignum::RandomSource* rng) {
  BigInt x = rng->Below(pub.n);
  BigInt c0 = RsaPublicOp(pub, x);
  DerivedKeys keys = DeriveKeys(x, pub.ModulusBytes());

  HybridCiphertext ct;
  ct.encapsulated = c0.ToBytesPadded(pub.ModulusBytes());
  ChaCha20 cipher(keys.enc_key, keys.nonce);
  ct.body = cipher.Crypt(plaintext);
  Digest256 mac = HmacSha256(keys.mac_key, ct.body);
  std::copy(mac.begin(), mac.end(), ct.tag.begin());
  return ct;
}

bool RsaHybridDecrypt(const RsaPrivateKey& priv, const HybridCiphertext& ct,
                      std::vector<std::uint8_t>* plaintext) {
  BigInt c0 = BigInt::FromBytes(ct.encapsulated);
  if (c0.Compare(priv.n) >= 0) return false;
  BigInt x = RsaPrivateOp(priv, c0);
  DerivedKeys keys = DeriveKeys(x, priv.PublicKey().ModulusBytes());

  Digest256 mac = HmacSha256(keys.mac_key, ct.body);
  if (!ConstantTimeEquals(mac.data(), ct.tag.data(), mac.size())) return false;

  ChaCha20 cipher(keys.enc_key, keys.nonce);
  *plaintext = cipher.Crypt(ct.body);
  return true;
}

}  // namespace crypto
}  // namespace p2drm
