#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.h"

#if P2DRM_HAVE_SHANI_KERNEL
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace p2drm {
namespace crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

detail::Sha256CompressFn SelectKernel() {
#if P2DRM_HAVE_SHANI_KERNEL
  if (detail::CpuHasShaNi()) return detail::Sha256CompressShaNi;
#endif
  return detail::Sha256CompressPortable;
}

// Chosen once per process, the first time anything hashes (as
// bignum::ifma::CpuSupported picks the IFMA kernel).
detail::Sha256CompressFn Kernel() {
  static const detail::Sha256CompressFn kernel = SelectKernel();
  return kernel;
}

}  // namespace

namespace detail {

void Sha256CompressPortable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool CpuHasShaNi() {
#if P2DRM_HAVE_SHANI_KERNEL
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const bool ssse3 = (ecx & bit_SSSE3) != 0;
    const bool sse41 = (ecx & bit_SSE4_1) != 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const bool sha = (ebx & (1u << 29)) != 0;
    return ssse3 && sse41 && sha;
  }();
  return supported;
#else
  return false;
#endif
}

#if P2DRM_HAVE_SHANI_KERNEL

// The SHA-NI rounds keep the working variables as two vectors, ABEF and
// CDGH; every 128-bit message vector feeds four rounds (two rnds2 of two
// rounds each), and msg1/msg2 extend the schedule four words at a time:
// W[t..t+3] = msg2(msg1(W[t-16..t-13], W[t-12..t-9]) + W[t-7..t-4],
// W[t-4..t-1]).
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256CompressShaNi(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        const __m128i prev = w[(g - 1) & 3];
        const __m128i t7 = _mm_alignr_epi8(prev, w[(g - 2) & 3], 4);
        w[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g - 3) & 3]), t7),
            prev);
      }
      __m128i wk = _mm_add_epi32(
          w[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // P2DRM_HAVE_SHANI_KERNEL

}  // namespace detail

const char* Sha256KernelName() {
  return Kernel() == detail::Sha256CompressPortable ? "portable" : "sha-ni";
}

void Sha256::Reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    Kernel()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t whole = len / 64;
  if (whole > 0) {
    Kernel()(state_.data(), data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest256 Sha256::Final() {
  const std::uint64_t bit_len = total_len_ * 8;
  const detail::Sha256CompressFn compress = Kernel();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest256 Sha256::Hash(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Final();
}

std::string DigestToHex(const Digest256& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

std::vector<std::uint8_t> DigestToBytes(const Digest256& d) {
  return std::vector<std::uint8_t>(d.begin(), d.end());
}

}  // namespace crypto
}  // namespace p2drm
