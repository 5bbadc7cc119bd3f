#include "storage/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace itree::storage {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// 8 slice tables, built once at first use. Table 0 is the classic
/// byte-at-a-time table; table k extends it to bytes k positions ahead
/// so the hot loop folds 8 input bytes per iteration.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xffu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& tables() {
  static const Tables instance;
  return instance;
}

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes exactly this polynomial's
/// reflected update (without the pre/post inversion), 8 bytes per
/// instruction. Compiled for SSE4.2 at function level only, so the rest
/// of the binary still runs on any x86-64; crc32c() calls it only after
/// the CPU reported the feature.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
  }
  return ~crc32;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Crc32cFn select_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return crc32c_sse42;
  }
#endif
  return crc32c_portable;
}

}  // namespace

std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed) {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  while (size >= 8) {
    const std::uint32_t low =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][low & 0xffu] ^ t[6][(low >> 8) & 0xffu] ^
          t[5][(low >> 16) & 0xffu] ^ t[4][low >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) {
  static const Crc32cFn impl = select_crc32c();
  return impl(data, size, seed);
}

}  // namespace itree::storage
