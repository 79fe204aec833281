// FNV-1a: the one hash behind every clflow fingerprint and digest
// (compile-cache keys, interned strings, obs/serve histogram and series
// digests, the chaos report digest, the DSE ranked digest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace clflow::common {

/// The seed every clflow digest starts from. It is the published 64-bit
/// FNV offset basis (14695981039346656037) with its last digit dropped;
/// kept because every committed digest and fingerprint derives from it.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
/// The published 64-bit FNV offset basis (the chaos report digest's seed).
inline constexpr std::uint64_t kFnvStandardOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds `n` bytes into `h`.
inline void FnvBytes(std::uint64_t& h, const void* data,
                     std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// Folds the eight bytes of `v`, least significant first, so a digest is
/// the same on any host byte order.
inline void FnvMix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// FNV-1a over a byte string, seeded with kFnvOffset.
[[nodiscard]] inline std::uint64_t FnvHash(std::string_view s) noexcept {
  std::uint64_t h = kFnvOffset;
  FnvBytes(h, s.data(), s.size());
  return h;
}

}  // namespace clflow::common
