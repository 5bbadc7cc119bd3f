// Little-endian byte codec: the one encoding behind the wire protocol
// (net/protocol.cpp), the write-ahead log (storage/wal.cpp) and the
// ITSNAP05 snapshot image (storage/snapshot.cpp).
//
// Integers travel little-endian and doubles as their raw IEEE-754
// bits, so a reward or contribution crosses a socket, a WAL replay or a
// save/recover cycle bit-exactly — the served == in-process and
// incremental == batch digests rely on it.
//
// Scalars are assembled byte by byte with shifts, so their encoding
// does not depend on host byte order. Arrays (reward vectors, snapshot
// columns) move as one bulk copy; swap_to_le() is the single place
// where the host's byte order matters, and on a little-endian host it
// does nothing.
//
// Writers are templates over the output: std::string, or ByteCount,
// which sizes an encoding without writing it. ByteReader is the
// bounds-checked decoder, parameterized on the exception it throws:
// net::ProtocolError for frames, std::invalid_argument for the WAL and
// the snapshot image — the "parse or throw, never crash" contract that
// tests/fuzz_test.cpp exercises.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace itree::le {

/// Unsigned integers are the scalars; u8/u32/u64/f64 are spelled out
/// below, f64 through its bits.
template <typename T>
concept Scalar = std::is_unsigned_v<T>;

/// Element types of a bulk array: u32 and f64 columns.
template <typename T>
concept Element =
    std::is_trivially_copyable_v<T> && (sizeof(T) == 4 || sizeof(T) == 8);

/// Writes `v` as sizeof(T) little-endian bytes at `dst`.
template <Scalar T>
void store(char* dst, T v) {
  for (unsigned shift = 0; shift < sizeof(T) * 8; shift += 8) {
    *dst++ = static_cast<char>((v >> shift) & 0xff);
  }
}

/// Reads sizeof(T) little-endian bytes at `src`.
template <Scalar T>
T load(const char* src) {
  T v = 0;
  for (unsigned shift = 0; shift < sizeof(T) * 8; shift += 8) {
    v |= static_cast<T>(static_cast<std::uint8_t>(*src++)) << shift;
  }
  return v;
}

/// Converts `count` elements of `width` bytes at `bytes`, in place,
/// between host order and little-endian order — the same byte
/// permutation in both directions. The codec's only host-order branch.
inline void swap_to_le(char* bytes, std::size_t count, std::size_t width) {
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t i = 0; i < count; ++i, bytes += width) {
      std::reverse(bytes, bytes + width);
    }
  }
}

/// Writes `values` as consecutive little-endian elements at `dst`.
template <Element T>
void store_array(char* dst, std::span<const T> values) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (!values.empty()) {
    std::memcpy(dst, values.data(), values.size_bytes());
    swap_to_le(dst, values.size(), sizeof(T));
  }
}

/// Fills `out` from out.size() consecutive little-endian elements at
/// `src`.
template <Element T>
void load_array(const char* src, std::span<T> out) {
  if (!out.empty()) {
    std::memcpy(out.data(), src, out.size_bytes());
    swap_to_le(reinterpret_cast<char*>(out.data()), out.size(), sizeof(T));
  }
}

/// Stands in for the output string to size an encoding exactly.
struct ByteCount {
  std::size_t size = 0;
  void push_back(char) { ++size; }
  void append(const char*, std::size_t n) { size += n; }
  ByteCount& operator+=(std::string_view bytes) {
    size += bytes.size();
    return *this;
  }
};

template <typename Out>
void put_u8(Out& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

template <typename Out, Scalar T>
void put(Out& out, T v) {
  char bytes[sizeof(T)];
  store(bytes, v);
  out.append(bytes, sizeof(T));
}

template <typename Out>
void put_u32(Out& out, std::uint32_t v) {
  put(out, v);
}

template <typename Out>
void put_u64(Out& out, std::uint64_t v) {
  put(out, v);
}

template <typename Out>
void put_f64(Out& out, double v) {
  put(out, std::bit_cast<std::uint64_t>(v));
}

/// Appends `values` as consecutive little-endian elements.
template <typename Out, Element T>
void put_array(Out& out, std::span<const T> values) {
  if constexpr (std::is_same_v<Out, ByteCount>) {
    out.size += values.size_bytes();
  } else if (!values.empty()) {
    const std::size_t at = out.size();
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size_bytes());
    swap_to_le(out.data() + at, values.size(), sizeof(T));
  }
}

/// Bounds-checked little-endian reader over one encoded payload. Throws
/// Error("<what> truncated") when a read runs past the end and
/// Error("trailing bytes after <what>") from finish() when bytes are
/// left over.
template <typename Error>
class ByteReader {
 public:
  ByteReader(std::string_view data, const char* what)
      : data_(data), what_(what) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() { return load<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return load<std::uint64_t>(take(8)); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes, as a view into the payload.
  std::string_view bytes(std::size_t n) { return {take(n), n}; }

  /// Fills `out` with out.size() consecutive elements.
  template <Element T>
  void array(std::span<T> out) {
    load_array(take(out.size_bytes()), out);
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  void finish() const {
    if (remaining() != 0) {
      throw Error(std::string("trailing bytes after ") + what_);
    }
  }

 private:
  const char* take(std::size_t n) {
    if (remaining() < n) {
      throw Error(std::string(what_) + " truncated");
    }
    const char* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  std::string_view data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace itree::le
