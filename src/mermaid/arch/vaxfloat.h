// IEEE 754 <-> VAX floating-point codecs.
//
// The Firefly's CVAX stores F_floating (32-bit) and D_floating (64-bit)
// values: sign, 8-bit excess-128 exponent, hidden-bit 0.1m mantissa, laid
// out as little-endian 16-bit words with the sign/exponent word first. IEEE
// specials (NaN, infinity, denormals) have no VAX representation — the paper
// notes they are "detected with two additional comparison operations" — so
// the codec reports what it had to do (clamp / flush to zero) and the
// conversion layer counts those events. VAX D has 55 mantissa bits to IEEE
// double's 52, so D→IEEE rounds — the paper's "floating point numbers can
// lose precision when they are converted".
//
// The word-level DecodeVax/EncodeVax overloads are the only implementation
// of each codec: the byte-image functions below, the typed accessors
// (scalar.h) and the block kernels the page converter runs (codec.h) all
// call them. They are inline so a block loop compiles to straight-line code
// around them.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

#include "mermaid/base/bytes.h"

namespace mermaid::arch {

enum class VaxConvertResult : std::uint8_t {
  kExact,             // value representable exactly (module rounding for D)
  kUnderflowedToZero, // magnitude below the target's smallest normal
  kClampedOverflow,   // magnitude above the target's largest finite
  kClampedSpecial,    // IEEE NaN/Inf mapped to the largest finite VAX value
  kReservedOperand,   // VAX reserved operand (s=1,e=0) mapped to IEEE NaN
};

namespace vax {

// A VAX image as a word: its bytes loaded as a little-endian integer. The
// logical form puts the sign/exponent word on top, so a VAX-F logical word
// is s<31> e<30:23> f<22:0> and a VAX-D one s<63> e<62:55> f<54:0>, the same
// field positions as IEEE single (and, for the sign, IEEE double).
constexpr std::uint32_t Logical(std::uint32_t image) {
  return std::rotl(image, 16);
}
constexpr std::uint64_t Logical(std::uint64_t image) {
  // Reverses the four 16-bit words; the mapping is its own inverse.
  image = std::rotl(image, 32);
  return ((image & 0x0000FFFF0000FFFFull) << 16) |
         ((image >> 16) & 0x0000FFFF0000FFFFull);
}
constexpr std::uint32_t Image(std::uint32_t logical) {
  return std::rotr(logical, 16);
}
constexpr std::uint64_t Image(std::uint64_t logical) {
  return Logical(logical);
}

// Largest finite VAX magnitude (e=255, all-ones fraction), logical form.
inline constexpr std::uint32_t kFMaxLogical = (255u << 23) | 0x7FFFFFu;
inline constexpr std::uint64_t kDMaxLogical =
    (255ull << 55) | 0x7FFFFFFFFFFFF8ull;

}  // namespace vax

// VAX-F image word -> IEEE single bits.
inline VaxConvertResult DecodeVax(std::uint32_t image, std::uint32_t* bits) {
  const std::uint32_t l = vax::Logical(image);
  const std::uint32_t e = (l >> 23) & 0xFF;
  if (e > 2) [[likely]] {
    *bits = l - (2u << 23);  // rebias 129 -> 127 (hidden-bit shift)
    return VaxConvertResult::kExact;
  }
  const std::uint32_t s = l >> 31;
  if (e == 0) {
    // VAX treats e=0,s=0 as zero regardless of fraction; s=1 is the
    // reserved operand.
    if (s == 0) {
      *bits = 0;
      return VaxConvertResult::kExact;
    }
    *bits = std::bit_cast<std::uint32_t>(
        std::numeric_limits<float>::quiet_NaN());
    return VaxConvertResult::kReservedOperand;
  }
  // e in {1, 2}: below the smallest IEEE single normal; emit a denormal.
  const std::uint32_t mant24 = 0x800000u | (l & 0x7FFFFF);
  *bits = (s << 31) | (mant24 >> (3 - e));
  return VaxConvertResult::kExact;
}

// IEEE single bits -> VAX-F image word.
inline VaxConvertResult EncodeVax(std::uint32_t bits, std::uint32_t* image) {
  const std::uint32_t ieee_e = (bits >> 23) & 0xFF;
  if (ieee_e - 1 < 253) [[likely]] {  // 1..253: VAX exponent 3..255
    *image = vax::Image(bits + (2u << 23));
    return VaxConvertResult::kExact;
  }
  const std::uint32_t sign = bits & 0x80000000u;
  if (ieee_e == 0) {
    // Zero or IEEE denormal. The smallest VAX-F normal is 2^-128 while IEEE
    // single denormals are < 2^-126; a denormal with value >= 2^-128 could
    // in principle be represented, but like the original VAX conversion
    // libraries we flush all denormals to (true) zero.
    *image = 0;
    return (bits & 0x7FFFFF) == 0 ? VaxConvertResult::kExact
                                  : VaxConvertResult::kUnderflowedToZero;
  }
  // NaN or infinity (255), or an exponent past the VAX range (254): clamp
  // to the largest finite VAX magnitude, keeping the sign.
  *image = vax::Image(sign | vax::kFMaxLogical);
  return ieee_e == 0xFF ? VaxConvertResult::kClampedSpecial
                        : VaxConvertResult::kClampedOverflow;
}

// VAX-D image word -> IEEE double bits.
inline VaxConvertResult DecodeVax(std::uint64_t image, std::uint64_t* bits) {
  const std::uint64_t l = vax::Logical(image);
  const std::uint64_t sign = l & (1ull << 63);
  const std::uint64_t mag = l ^ sign;
  if (mag >> 55 != 0) [[likely]] {
    // Rebias (e-129+1023) and round the 55-bit fraction to 52 bits, half
    // away from zero. A carry out of the fraction flows into the exponent
    // field (staying far below the IEEE max).
    *bits = sign | (((mag + 4) >> 3) + (894ull << 52));
    return VaxConvertResult::kExact;
  }
  // e=0: zero when s=0 whatever the fraction; s=1 is the reserved operand.
  if (sign == 0) {
    *bits = 0;
    return VaxConvertResult::kExact;
  }
  *bits = std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::quiet_NaN());
  return VaxConvertResult::kReservedOperand;
}

// IEEE double bits -> VAX-D image word.
inline VaxConvertResult EncodeVax(std::uint64_t bits, std::uint64_t* image) {
  constexpr std::uint64_t kSign = 1ull << 63;
  // VAX-D exponent: value = 1.f * 2^(e-129); IEEE: 1.F * 2^(E-1023).
  const std::uint32_t ieee_e = static_cast<std::uint32_t>(bits >> 52) & 0x7FF;
  if (ieee_e - 895 < 255) [[likely]] {  // VAX exponent 1..255
    // Rebias and widen the 52-bit IEEE fraction to the 55-bit VAX-D one.
    constexpr std::uint64_t kRebias = 894ull << 52;
    *image = vax::Image((bits & kSign) | (((bits & ~kSign) - kRebias) << 3));
    return VaxConvertResult::kExact;
  }
  if (ieee_e == 0x7FF || ieee_e > 894) {
    *image = vax::Image((bits & kSign) | vax::kDMaxLogical);
    return ieee_e == 0x7FF ? VaxConvertResult::kClampedSpecial
                           : VaxConvertResult::kClampedOverflow;
  }
  *image = 0;
  return ieee_e == 0 && (bits & 0xFFFFFFFFFFFFFull) == 0
             ? VaxConvertResult::kExact
             : VaxConvertResult::kUnderflowedToZero;
}

// Byte-image forms. `out`/`in` are the 4-byte (F) or 8-byte (D) VAX memory
// image.
inline VaxConvertResult IeeeToVaxF(float v, std::uint8_t out[4]) {
  std::uint32_t image = 0;
  const VaxConvertResult r = EncodeVax(std::bit_cast<std::uint32_t>(v), &image);
  base::StoreAs(out, image, base::ByteOrder::kLittle);
  return r;
}

inline VaxConvertResult VaxFToIeee(const std::uint8_t in[4], float* out) {
  std::uint32_t bits = 0;
  const VaxConvertResult r =
      DecodeVax(base::LoadAs<std::uint32_t>(in, base::ByteOrder::kLittle),
                &bits);
  *out = std::bit_cast<float>(bits);
  return r;
}

inline VaxConvertResult IeeeToVaxD(double v, std::uint8_t out[8]) {
  std::uint64_t image = 0;
  const VaxConvertResult r = EncodeVax(std::bit_cast<std::uint64_t>(v), &image);
  base::StoreAs(out, image, base::ByteOrder::kLittle);
  return r;
}

inline VaxConvertResult VaxDToIeee(const std::uint8_t in[8], double* out) {
  std::uint64_t bits = 0;
  const VaxConvertResult r =
      DecodeVax(base::LoadAs<std::uint64_t>(in, base::ByteOrder::kLittle),
                &bits);
  *out = std::bit_cast<double>(bits);
  return r;
}

// Largest finite magnitudes representable (handy for tests and clamping).
inline float VaxFMaxAsIeee() {
  // e=255, f=all ones: (2 - 2^-23) * 2^126.
  return std::bit_cast<float>((253u << 23) | 0x7FFFFFu);
}

inline double VaxDMaxAsIeee() {
  // The VAX-D max is (2 - 2^-55) * 2^126; the largest IEEE double not
  // exceeding it truncates the fraction to 52 bits: (2 - 2^-52) * 2^126,
  // i.e. exponent field 1149 (126 + 1023) with an all-ones fraction.
  return std::bit_cast<double>((1149ull << 52) | 0xFFFFFFFFFFFFFull);
}

}  // namespace mermaid::arch
