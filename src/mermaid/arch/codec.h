// Block codec kernels: one per basic kind and direction.
//
// Each kernel converts `count` elements read `in_stride` bytes apart from
// `in` and writes them `out_stride` bytes apart to `out` (in == out with
// equal strides converts in place; gap bytes between elements are never
// touched). The kinds are a byte swap of 16/32/64-bit words and IEEE <-> VAX
// F/D (vaxfloat.h's element codecs). The typed accessors (scalar.h) run them
// over a page run of a host's memory image, the page converter
// (TypeRegistry::ConvertStrided) over a whole page, so there is one loop per
// kind and the per-element choice of codec is made once per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "mermaid/arch/vaxfloat.h"
#include "mermaid/base/bytes.h"

namespace mermaid::arch {

// Counters for lossy conversion events (NaN/Inf clamps, underflows, ...).
struct ConvertStats {
  std::int64_t underflowed_to_zero = 0;
  std::int64_t clamped_overflow = 0;
  std::int64_t clamped_special = 0;
  std::int64_t reserved_operand = 0;

  std::int64_t total_lossy() const {
    return underflowed_to_zero + clamped_overflow + clamped_special +
           reserved_operand;
  }
  void Record(VaxConvertResult r) {
    switch (r) {
      case VaxConvertResult::kExact:
        break;
      case VaxConvertResult::kUnderflowedToZero:
        ++underflowed_to_zero;
        break;
      case VaxConvertResult::kClampedOverflow:
        ++clamped_overflow;
        break;
      case VaxConvertResult::kClampedSpecial:
        ++clamped_special;
        break;
      case VaxConvertResult::kReservedOperand:
        ++reserved_operand;
        break;
    }
  }
};

namespace codec {

// The unsigned word a T's representation is handled as.
template <typename T>
using WordOf = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>>>;

// Applies `fn` to every word; the loop every kernel shares.
template <typename W, typename Fn>
void Map(const std::uint8_t* in, std::size_t in_stride, std::uint8_t* out,
         std::size_t out_stride, std::size_t count, Fn fn) {
  for (std::size_t i = 0; i < count; ++i) {
    W w = 0;
    std::memcpy(&w, in, sizeof(W));
    w = fn(w);
    std::memcpy(out, &w, sizeof(W));
    in += in_stride;
    out += out_stride;
  }
}

// Runs `body(std::true_type)` when words in `order` need a swap to reach
// native order, else `body(std::false_type)`, so the choice is made once
// per block instead of once per element.
template <typename Body>
void WithSwap(base::ByteOrder order, Body body) {
  if (order == base::NativeOrder()) {
    body(std::false_type{});
  } else {
    body(std::true_type{});
  }
}

template <typename W, bool kSwap>
W Swapped(W w) {
  if constexpr (kSwap) {
    return base::ByteSwap(w);
  } else {
    return w;
  }
}

// Byte swap of every W-sized word.
template <typename W>
void SwapBlock(const std::uint8_t* in, std::size_t in_stride,
               std::uint8_t* out, std::size_t out_stride, std::size_t count) {
  Map<W>(in, in_stride, out, out_stride, count,
         [](W w) { return base::ByteSwap(w); });
}

// VAX images (F for 32-bit words, D for 64-bit) -> IEEE words stored in
// `ieee_order`.
template <typename W>
void DecodeVaxBlock(const std::uint8_t* in, std::size_t in_stride,
                    std::uint8_t* out, std::size_t out_stride,
                    std::size_t count, base::ByteOrder ieee_order,
                    ConvertStats* stats) {
  WithSwap(ieee_order, [&](auto swap_out) {
    Map<W>(in, in_stride, out, out_stride, count, [stats](W image) {
      W bits = 0;
      const VaxConvertResult r = DecodeVax(
          Swapped<W, base::NativeOrder() != base::ByteOrder::kLittle>(image),
          &bits);
      if (r != VaxConvertResult::kExact && stats != nullptr) [[unlikely]] {
        stats->Record(r);
      }
      return Swapped<W, decltype(swap_out)::value>(bits);
    });
  });
}

// IEEE words stored in `ieee_order` -> VAX images.
template <typename W>
void EncodeVaxBlock(const std::uint8_t* in, std::size_t in_stride,
                    std::uint8_t* out, std::size_t out_stride,
                    std::size_t count, base::ByteOrder ieee_order,
                    ConvertStats* stats) {
  WithSwap(ieee_order, [&](auto swap_in) {
    Map<W>(in, in_stride, out, out_stride, count, [stats](W bits) {
      W image = 0;
      const VaxConvertResult r =
          EncodeVax(Swapped<W, decltype(swap_in)::value>(bits), &image);
      if (r != VaxConvertResult::kExact && stats != nullptr) [[unlikely]] {
        stats->Record(r);
      }
      return Swapped<W, base::NativeOrder() != base::ByteOrder::kLittle>(
          image);
    });
  });
}

}  // namespace codec
}  // namespace mermaid::arch
