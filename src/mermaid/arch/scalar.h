// Typed access to a host's representation-faithful memory.
//
// Application threads in the simulation run on the build machine but operate
// on memory images laid out for their simulated host: a SUN3 image stores
// big-endian integers and big-endian IEEE floats; a FIREFLY image stores
// little-endian integers and VAX F/D floats. These helpers are the "machine
// instructions" of a simulated host — every typed DSM accessor bottoms out
// here. LoadBlock/StoreBlock decode or encode a run of consecutive elements
// with one block kernel (codec.h); a run in the build machine's own
// representation is a memcpy. LoadScalar/StoreScalar are the one-element
// case of the same kernels. Lossy cases (storing an IEEE NaN into VAX
// memory) follow the same clamping policy as the page converters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/codec.h"
#include "mermaid/base/bytes.h"

namespace mermaid::arch {

// Decodes `count` consecutive elements of `image` (in `host`'s
// representation) into `out`.
template <typename T>
void LoadBlock(const ArchProfile& host, const void* image, std::size_t count,
               T* out) {
  static_assert(std::is_arithmetic_v<T>);
  if (count == 0) return;  // `out` may be null; memcpy must not see it
  using W = codec::WordOf<T>;
  const auto* in = static_cast<const std::uint8_t*>(image);
  auto* o = reinterpret_cast<std::uint8_t*>(out);
  if constexpr (std::is_floating_point_v<T>) {
    if (host.float_format == FloatFormat::kVax) {
      codec::DecodeVaxBlock<W>(in, sizeof(T), o, sizeof(T), count,
                               base::NativeOrder(), nullptr);
      return;
    }
  }
  if (host.byte_order == base::NativeOrder()) {
    std::memcpy(o, in, count * sizeof(T));
  } else {
    codec::SwapBlock<W>(in, sizeof(T), o, sizeof(T), count);
  }
}

// Encodes `count` elements of `in` into `image` in `host`'s representation.
template <typename T>
void StoreBlock(const ArchProfile& host, void* image, const T* in,
                std::size_t count) {
  static_assert(std::is_arithmetic_v<T>);
  if (count == 0) return;  // `in` may be null; memcpy must not see it
  using W = codec::WordOf<T>;
  const auto* i = reinterpret_cast<const std::uint8_t*>(in);
  auto* out = static_cast<std::uint8_t*>(image);
  if constexpr (std::is_floating_point_v<T>) {
    if (host.float_format == FloatFormat::kVax) {
      codec::EncodeVaxBlock<W>(i, sizeof(T), out, sizeof(T), count,
                               base::NativeOrder(), nullptr);
      return;
    }
  }
  if (host.byte_order == base::NativeOrder()) {
    std::memcpy(out, i, count * sizeof(T));
  } else {
    codec::SwapBlock<W>(i, sizeof(T), out, sizeof(T), count);
  }
}

template <typename T>
T LoadScalar(const ArchProfile& host, const void* p) {
  T v{};
  LoadBlock<T>(host, p, 1, &v);
  return v;
}

template <typename T>
void StoreScalar(const ArchProfile& host, void* p, T v) {
  StoreBlock<T>(host, p, &v, 1);
}

}  // namespace mermaid::arch
