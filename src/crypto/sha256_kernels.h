#ifndef P2DRM_CRYPTO_SHA256_KERNELS_H_
#define P2DRM_CRYPTO_SHA256_KERNELS_H_

/// \file sha256_kernels.h
/// \brief The SHA-256 compression kernels behind crypto::Sha256.
///
/// Internal: only sha256.cpp and the kernel tests include this header.
/// Sha256 picks one kernel per process, the first time it hashes:
/// SHA-NI when the CPU has it, the portable loop otherwise. Exposing
/// both lets a test check one against the other on a CPU that would
/// never run the portable one.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define P2DRM_HAVE_SHANI_KERNEL 1
#endif

namespace p2drm {
namespace crypto {
namespace detail {

/// Compresses \p nblocks consecutive 64-byte blocks into \p state
/// (FIPS 180-4 word order: state[0] = a ... state[7] = h).
using Sha256CompressFn = void (*)(std::uint32_t* state,
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks);

/// Portable kernel; runs only on CPUs without the SHA extensions.
void Sha256CompressPortable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

/// True when the CPU reports the SHA extensions (cpuid leaf 7 EBX bit 29)
/// plus the SSSE3 and SSE4.1 the kernel also uses, and this build has
/// the kernel.
bool CpuHasShaNi();

#if P2DRM_HAVE_SHANI_KERNEL
/// SHA-NI kernel (Gulley et al., "Intel SHA Extensions", 2013). Call it
/// only when CpuHasShaNi() is true.
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256CompressShaNi(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);
#endif

}  // namespace detail
}  // namespace crypto
}  // namespace p2drm

#endif  // P2DRM_CRYPTO_SHA256_KERNELS_H_
