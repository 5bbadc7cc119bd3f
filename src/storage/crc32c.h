// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
// the storage engine's record and snapshot checksum.
//
// CRC32C is the WAL-industry standard (LevelDB, RocksDB, Kafka) for a
// reason: it detects all burst errors up to 32 bits and has better
// Hamming-distance properties at record sizes than CRC32/zlib.
//
// Records are tens of bytes, but recovery also checksums every section
// of a mapped snapshot image: 88 MB for a 2M-participant v5 image. At
// the portable slice-by-8 rate (~2 GB/s) that verify pass was 15% of a
// restart. crc32c() therefore uses the SSE4.2 `crc32` instruction
// (8 bytes per instruction, ~3x faster) when the CPU has it, chosen
// once at first call; crc32c_portable() is the table fallback for
// other CPUs and architectures. Both produce identical values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace itree::storage {

/// CRC32C of `size` bytes, continuing from `seed` (0 for a fresh
/// checksum). Streaming: crc32c(b, crc32c(a)) == crc32c(a+b).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

/// The slice-by-8 table implementation crc32c() falls back to; same
/// values, exposed so tests can pin the dispatch against it.
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t seed = 0);

inline std::uint32_t crc32c(std::string_view bytes,
                            std::uint32_t seed = 0) {
  return crc32c(bytes.data(), bytes.size(), seed);
}

}  // namespace itree::storage
