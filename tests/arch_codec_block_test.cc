// Equivalence of the block codec kernels with a per-element reference.
//
// The reference below is the element-at-a-time codec the page converter and
// the typed accessors used before the block kernels (codec.h): field-level
// VAX pack/unpack, a per-element switch over the basic kinds, and
// LoadScalar/StoreScalar built on the byte-image VAX functions. Every
// kernel — TypeRegistry::ConvertStrided for each basic kind and profile
// pair, LoadBlock/StoreBlock for each accessor type, and the scalar and
// byte-image wrappers over them — must produce the same bytes and the same
// ConvertStats counters for random bit patterns and for the codec's edge
// cases (reserved operands, rounding carries, IEEE specials, range limits).
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/arch/vaxfloat.h"
#include "mermaid/base/bytes.h"
#include "mermaid/base/rng.h"

namespace mermaid::arch {
namespace {

using Reg = TypeRegistry;

// --- per-element reference ----------------------------------------------
namespace ref {

void PackVaxF(std::uint32_t s, std::uint32_t e, std::uint32_t f,
              std::uint8_t out[4]) {
  const std::uint16_t w0 =
      static_cast<std::uint16_t>((s << 15) | (e << 7) | (f >> 16));
  const std::uint16_t w1 = static_cast<std::uint16_t>(f & 0xFFFF);
  out[0] = static_cast<std::uint8_t>(w0 & 0xFF);
  out[1] = static_cast<std::uint8_t>(w0 >> 8);
  out[2] = static_cast<std::uint8_t>(w1 & 0xFF);
  out[3] = static_cast<std::uint8_t>(w1 >> 8);
}

void UnpackVaxF(const std::uint8_t in[4], std::uint32_t* s, std::uint32_t* e,
                std::uint32_t* f) {
  const std::uint16_t w0 = static_cast<std::uint16_t>(in[0] | (in[1] << 8));
  const std::uint16_t w1 = static_cast<std::uint16_t>(in[2] | (in[3] << 8));
  *s = w0 >> 15;
  *e = (w0 >> 7) & 0xFF;
  *f = (static_cast<std::uint32_t>(w0 & 0x7F) << 16) | w1;
}

void PackVaxD(std::uint32_t s, std::uint32_t e, std::uint64_t f,
              std::uint8_t out[8]) {
  const std::uint16_t w[4] = {
      static_cast<std::uint16_t>((s << 15) | (e << 7) |
                                 static_cast<std::uint32_t>(f >> 48)),
      static_cast<std::uint16_t>((f >> 32) & 0xFFFF),
      static_cast<std::uint16_t>((f >> 16) & 0xFFFF),
      static_cast<std::uint16_t>(f & 0xFFFF)};
  for (int i = 0; i < 4; ++i) {
    out[2 * i] = static_cast<std::uint8_t>(w[i] & 0xFF);
    out[2 * i + 1] = static_cast<std::uint8_t>(w[i] >> 8);
  }
}

void UnpackVaxD(const std::uint8_t in[8], std::uint32_t* s, std::uint32_t* e,
                std::uint64_t* f) {
  std::uint16_t w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = static_cast<std::uint16_t>(in[2 * i] | (in[2 * i + 1] << 8));
  }
  *s = w[0] >> 15;
  *e = (w[0] >> 7) & 0xFF;
  *f = (static_cast<std::uint64_t>(w[0] & 0x7F) << 48) |
       (static_cast<std::uint64_t>(w[1]) << 32) |
       (static_cast<std::uint64_t>(w[2]) << 16) | w[3];
}

VaxConvertResult IeeeToVaxF(float v, std::uint8_t out[4]) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  const std::uint32_t s = bits >> 31;
  const std::uint32_t ieee_e = (bits >> 23) & 0xFF;
  const std::uint32_t frac = bits & 0x7FFFFF;
  if (ieee_e == 0xFF) {
    PackVaxF(s, 255, 0x7FFFFF, out);
    return VaxConvertResult::kClampedSpecial;
  }
  if (ieee_e == 0) {
    PackVaxF(0, 0, 0, out);
    return frac == 0 ? VaxConvertResult::kExact
                     : VaxConvertResult::kUnderflowedToZero;
  }
  const std::uint32_t e = ieee_e + 2;
  if (e > 255) {
    PackVaxF(s, 255, 0x7FFFFF, out);
    return VaxConvertResult::kClampedOverflow;
  }
  PackVaxF(s, e, frac, out);
  return VaxConvertResult::kExact;
}

VaxConvertResult VaxFToIeee(const std::uint8_t in[4], float* out) {
  std::uint32_t s = 0, e = 0, f = 0;
  UnpackVaxF(in, &s, &e, &f);
  if (e == 0) {
    if (s == 0) {
      *out = 0.0f;
      return VaxConvertResult::kExact;
    }
    *out = std::numeric_limits<float>::quiet_NaN();
    return VaxConvertResult::kReservedOperand;
  }
  const std::int32_t ieee_e = static_cast<std::int32_t>(e) - 2;
  std::uint32_t bits;
  if (ieee_e <= 0) {
    const std::uint32_t mant24 = 0x800000u | f;
    const std::uint32_t shift = static_cast<std::uint32_t>(1 - ieee_e);
    bits = (s << 31) | (mant24 >> shift);
  } else {
    bits = (s << 31) | (static_cast<std::uint32_t>(ieee_e) << 23) | f;
  }
  *out = std::bit_cast<float>(bits);
  return VaxConvertResult::kExact;
}

VaxConvertResult IeeeToVaxD(double v, std::uint8_t out[8]) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  const std::uint32_t s = static_cast<std::uint32_t>(bits >> 63);
  const std::uint32_t ieee_e = static_cast<std::uint32_t>((bits >> 52) & 0x7FF);
  const std::uint64_t frac = bits & 0xFFFFFFFFFFFFFull;
  if (ieee_e == 0x7FF) {
    PackVaxD(s, 255, 0x7FFFFFFFFFFFF8ull, out);
    return VaxConvertResult::kClampedSpecial;
  }
  if (ieee_e == 0) {
    PackVaxD(0, 0, 0, out);
    return frac == 0 ? VaxConvertResult::kExact
                     : VaxConvertResult::kUnderflowedToZero;
  }
  const std::int32_t e = static_cast<std::int32_t>(ieee_e) - 1023 + 129;
  if (e > 255) {
    PackVaxD(s, 255, 0x7FFFFFFFFFFFF8ull, out);
    return VaxConvertResult::kClampedOverflow;
  }
  if (e < 1) {
    PackVaxD(0, 0, 0, out);
    return VaxConvertResult::kUnderflowedToZero;
  }
  PackVaxD(s, static_cast<std::uint32_t>(e), frac << 3, out);
  return VaxConvertResult::kExact;
}

VaxConvertResult VaxDToIeee(const std::uint8_t in[8], double* out) {
  std::uint32_t s = 0, e = 0;
  std::uint64_t f = 0;
  UnpackVaxD(in, &s, &e, &f);
  if (e == 0) {
    if (s == 0) {
      *out = 0.0;
      return VaxConvertResult::kExact;
    }
    *out = std::numeric_limits<double>::quiet_NaN();
    return VaxConvertResult::kReservedOperand;
  }
  std::uint64_t ieee_e = static_cast<std::uint64_t>(e) + 894;
  std::uint64_t rounded = f + 4;
  if (rounded >> 55 != 0) {
    rounded = 0;
    ++ieee_e;
  }
  const std::uint64_t frac52 = (rounded >> 3) & 0xFFFFFFFFFFFFFull;
  const std::uint64_t bits =
      (static_cast<std::uint64_t>(s) << 63) | (ieee_e << 52) | frac52;
  *out = std::bit_cast<double>(bits);
  return VaxConvertResult::kExact;
}

template <typename U>
void SwapInPlace(std::uint8_t* p) {
  U v;
  std::memcpy(&v, p, sizeof(U));
  v = base::ByteSwap(v);
  std::memcpy(p, &v, sizeof(U));
}

void ConvertBasic(TypeId t, std::uint8_t* p, const ConvertContext& ctx) {
  const ArchProfile& src = *ctx.src;
  const ArchProfile& dst = *ctx.dst;
  const bool swap = src.byte_order != dst.byte_order;
  switch (t) {
    case Reg::kChar:
      break;
    case Reg::kShort:
      if (swap) SwapInPlace<std::uint16_t>(p);
      break;
    case Reg::kInt:
      if (swap) SwapInPlace<std::uint32_t>(p);
      break;
    case Reg::kLong:
      if (swap) SwapInPlace<std::uint64_t>(p);
      break;
    case Reg::kPointer: {
      std::uint64_t v = 0;
      std::memcpy(&v, p, 8);
      if (src.byte_order != base::NativeOrder()) v = base::ByteSwap(v);
      v += static_cast<std::uint64_t>(ctx.pointer_delta);
      if (dst.byte_order != base::NativeOrder()) v = base::ByteSwap(v);
      std::memcpy(p, &v, 8);
      break;
    }
    case Reg::kFloat: {
      if (src.float_format == dst.float_format) {
        if (src.float_format == FloatFormat::kIeee754 && swap) {
          SwapInPlace<std::uint32_t>(p);
        }
        break;
      }
      if (src.float_format == FloatFormat::kVax) {
        float f = 0;
        ctx.stats->Record(VaxFToIeee(p, &f));
        base::StoreAs(p, std::bit_cast<std::uint32_t>(f), dst.byte_order);
      } else {
        auto bits = base::LoadAs<std::uint32_t>(p, src.byte_order);
        ctx.stats->Record(IeeeToVaxF(std::bit_cast<float>(bits), p));
      }
      break;
    }
    case Reg::kDouble: {
      if (src.float_format == dst.float_format) {
        if (src.float_format == FloatFormat::kIeee754 && swap) {
          SwapInPlace<std::uint64_t>(p);
        }
        break;
      }
      if (src.float_format == FloatFormat::kVax) {
        double d = 0;
        ctx.stats->Record(VaxDToIeee(p, &d));
        base::StoreAs(p, std::bit_cast<std::uint64_t>(d), dst.byte_order);
      } else {
        auto bits = base::LoadAs<std::uint64_t>(p, src.byte_order);
        ctx.stats->Record(IeeeToVaxD(std::bit_cast<double>(bits), p));
      }
      break;
    }
    default:
      FAIL() << "not a basic type: " << t;
  }
}

template <typename T>
T LoadScalar(const ArchProfile& host, const void* p) {
  if constexpr (std::is_same_v<T, float>) {
    if (host.float_format == FloatFormat::kVax) {
      float out = 0;
      VaxFToIeee(static_cast<const std::uint8_t*>(p), &out);
      return out;
    }
    return std::bit_cast<float>(base::LoadAs<std::uint32_t>(p, host.byte_order));
  } else if constexpr (std::is_same_v<T, double>) {
    if (host.float_format == FloatFormat::kVax) {
      double out = 0;
      VaxDToIeee(static_cast<const std::uint8_t*>(p), &out);
      return out;
    }
    return std::bit_cast<double>(
        base::LoadAs<std::uint64_t>(p, host.byte_order));
  } else {
    return base::LoadAs<T>(p, host.byte_order);
  }
}

template <typename T>
void StoreScalar(const ArchProfile& host, void* p, T v) {
  if constexpr (std::is_same_v<T, float>) {
    if (host.float_format == FloatFormat::kVax) {
      IeeeToVaxF(v, static_cast<std::uint8_t*>(p));
      return;
    }
    base::StoreAs(p, std::bit_cast<std::uint32_t>(v), host.byte_order);
  } else if constexpr (std::is_same_v<T, double>) {
    if (host.float_format == FloatFormat::kVax) {
      IeeeToVaxD(v, static_cast<std::uint8_t*>(p));
      return;
    }
    base::StoreAs(p, std::bit_cast<std::uint64_t>(v), host.byte_order);
  } else {
    base::StoreAs(p, v, host.byte_order);
  }
}

}  // namespace ref

// --- inputs ---------------------------------------------------------------

constexpr std::size_t kRandomPatterns = std::size_t{1} << 20;

// Hand-picked 32-bit patterns, read both as IEEE single bits and as VAX-F
// images (little-endian words of the logical s|e|f layout).
std::vector<std::uint32_t> EdgeWords32() {
  std::vector<std::uint32_t> w = {
      0x00000000u, 0x80000000u,                // IEEE +-0
      0x00000001u, 0x807FFFFFu, 0x00400000u,   // IEEE denormals
      0x00800000u, 0x80800000u,                // smallest IEEE normals
      0x7F800000u, 0xFF800000u,                // +-Inf
      0x7FC00000u, 0xFFC00001u, 0x7F800001u,   // quiet / signalling NaN
      0x7E7FFFFFu, 0x7E800000u, 0xFEFFFFFFu,   // IEEE e=252..253 (VAX max)
      0x7F000000u, 0xFF7FFFFFu,                // IEEE e=254: overflow
      0x3F800000u, 0xBF800000u, 0x3FFFFFFFu,   // +-1, just under 2
  };
  // VAX-F images: e=0 with s=0 and s=1 (any fraction), e=1/2 (IEEE
  // denormal results), e=3 (smallest IEEE normal), e=255 with an all-ones
  // fraction, each with both signs.
  for (std::uint32_t s : {0u, 1u}) {
    for (std::uint32_t e : {0u, 1u, 2u, 3u, 128u, 129u, 254u, 255u}) {
      for (std::uint32_t f : {0u, 1u, 0x400000u, 0x7FFFFFu}) {
        w.push_back(std::rotr((s << 31) | (e << 23) | f, 16));
      }
    }
  }
  return w;
}

std::vector<std::uint64_t> EdgeWords64() {
  std::vector<std::uint64_t> w = {
      0x0000000000000000ull, 0x8000000000000000ull,  // IEEE +-0
      0x0000000000000001ull, 0x800FFFFFFFFFFFFFull,  // IEEE denormals
      0x0010000000000000ull,                         // smallest IEEE normal
      0x7FF0000000000000ull, 0xFFF0000000000000ull,  // +-Inf
      0x7FF8000000000000ull, 0xFFF0000000000001ull,  // NaNs
      0x37EFFFFFFFFFFFFFull,  // IEEE e=894: underflows VAX-D
      0x37F0000000000000ull, 0xB7F0000000000001ull,  // e=895: VAX min
      0x47DFFFFFFFFFFFFFull, 0xC7D0000000000000ull,  // e=1149: VAX max
      0x47E0000000000000ull, 0xC7E0000000000000ull,  // e=1150: overflow
      0x3FF0000000000000ull, 0xBFF0000000000000ull,  // +-1
  };
  // VAX-D images: e=0 with s=0/1, fractions whose rounding carries into the
  // exponent (all ones, and the last 3 bits at or past the halfway point),
  // at the smallest and largest exponents and both signs.
  auto image = [](std::uint64_t s, std::uint64_t e, std::uint64_t f) {
    std::uint8_t img[8];
    ref::PackVaxD(static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(e),
                  f, img);
    std::uint64_t v;
    std::memcpy(&v, img, 8);
    return v;
  };
  for (std::uint64_t s : {0ull, 1ull}) {
    for (std::uint64_t e : {0ull, 1ull, 2ull, 128ull, 254ull, 255ull}) {
      for (std::uint64_t f :
           {0ull, 1ull, 3ull, 4ull, 7ull, 0x7FFFFFFFFFFFFBull,
            0x7FFFFFFFFFFFFCull, 0x7FFFFFFFFFFFFFull, 0x40000000000004ull}) {
        w.push_back(image(s, e, f));
      }
    }
  }
  return w;
}

// Random words with the edge cases mixed in at the front, as raw bytes
// (native order, so the patterns are the same whatever the build machine).
template <typename W>
std::vector<W> Patterns(std::size_t n, std::uint64_t seed) {
  std::vector<W> w;
  if constexpr (sizeof(W) == 4) {
    w = EdgeWords32();
  } else if constexpr (sizeof(W) == 8) {
    w = EdgeWords64();
  }
  base::Rng rng(seed);
  while (w.size() < n) w.push_back(static_cast<W>(rng.NextU64()));
  return w;
}

std::vector<std::uint8_t> AsBytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return std::vector<std::uint8_t>(b, b + n);
}

void ExpectStatsEq(const ConvertStats& a, const ConvertStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.underflowed_to_zero, b.underflowed_to_zero) << what;
  EXPECT_EQ(a.clamped_overflow, b.clamped_overflow) << what;
  EXPECT_EQ(a.clamped_special, b.clamped_special) << what;
  EXPECT_EQ(a.reserved_operand, b.reserved_operand) << what;
}

// A little-endian IEEE host (the build machine's own representation) and a
// big-endian VAX one, so every swap/no-swap branch of every kernel runs.
ArchProfile LittleIeee() {
  ArchProfile p;
  p.name = "little-ieee";
  p.byte_order = base::ByteOrder::kLittle;
  p.float_format = FloatFormat::kIeee754;
  return p;
}

ArchProfile BigVax() {
  ArchProfile p;
  p.name = "big-vax";
  p.byte_order = base::ByteOrder::kBig;
  p.float_format = FloatFormat::kVax;
  return p;
}

// --- tests ----------------------------------------------------------------

TEST(CodecElement, FloatCodecsMatchReference) {
  for (std::uint32_t w : Patterns<std::uint32_t>(kRandomPatterns, 1)) {
    std::uint8_t in[4];
    std::memcpy(in, &w, 4);
    float got = 0, want = 0;
    ASSERT_EQ(VaxFToIeee(in, &got), ref::VaxFToIeee(in, &want)) << w;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(want))
        << w;
    std::uint8_t got_img[4], want_img[4];
    const float v = std::bit_cast<float>(w);
    ASSERT_EQ(IeeeToVaxF(v, got_img), ref::IeeeToVaxF(v, want_img)) << w;
    ASSERT_EQ(std::memcmp(got_img, want_img, 4), 0) << w;
  }
}

TEST(CodecElement, DoubleCodecsMatchReference) {
  for (std::uint64_t w : Patterns<std::uint64_t>(kRandomPatterns, 2)) {
    std::uint8_t in[8];
    std::memcpy(in, &w, 8);
    double got = 0, want = 0;
    ASSERT_EQ(VaxDToIeee(in, &got), ref::VaxDToIeee(in, &want)) << w;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << w;
    std::uint8_t got_img[8], want_img[8];
    const double v = std::bit_cast<double>(w);
    ASSERT_EQ(IeeeToVaxD(v, got_img), ref::IeeeToVaxD(v, want_img)) << w;
    ASSERT_EQ(std::memcmp(got_img, want_img, 8), 0) << w;
  }
}

TEST(CodecElement, EdgeCasesHitEveryLossyOutcome) {
  // The edge lists must exercise each lossy path, or the equivalence above
  // proves less than it claims.
  ConvertStats f, d;
  for (std::uint32_t w : EdgeWords32()) {
    std::uint8_t img[4];
    float out;
    std::memcpy(img, &w, 4);
    f.Record(ref::VaxFToIeee(img, &out));
    f.Record(ref::IeeeToVaxF(std::bit_cast<float>(w), img));
  }
  for (std::uint64_t w : EdgeWords64()) {
    std::uint8_t img[8];
    double out;
    std::memcpy(img, &w, 8);
    d.Record(ref::VaxDToIeee(img, &out));
    d.Record(ref::IeeeToVaxD(std::bit_cast<double>(w), img));
  }
  for (const ConvertStats* s : {&f, &d}) {
    EXPECT_GT(s->underflowed_to_zero, 0);
    EXPECT_GT(s->clamped_overflow, 0);
    EXPECT_GT(s->clamped_special, 0);
    EXPECT_GT(s->reserved_operand, 0);
  }
}

struct Kind {
  TypeId type;
  std::size_t size;
};

const Kind kKinds[] = {{Reg::kChar, 1},  {Reg::kShort, 2}, {Reg::kInt, 4},
                       {Reg::kLong, 8},  {Reg::kFloat, 4}, {Reg::kDouble, 8},
                       {Reg::kPointer, 8}};

// ConvertStrided (one kernel per call) against the reference applied
// element by element, over every basic kind, every ordered pair of four
// representations (same-profile pairs included), dense and gapped strides,
// and counts that leave odd tails.
TEST(CodecBlock, ConvertStridedMatchesReference) {
  Reg reg;
  const ArchProfile little = LittleIeee();
  const ArchProfile big_vax = BigVax();
  const ArchProfile* profiles[] = {&Sun3Profile(), &FireflyProfile(), &little,
                                   &big_vax};
  base::Rng rng(3);
  for (const Kind& k : kKinds) {
    for (const ArchProfile* src : profiles) {
      for (const ArchProfile* dst : profiles) {
        for (std::size_t gap : {std::size_t{0}, std::size_t{3}}) {
          for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{1001}}) {
            const std::size_t stride = k.size + gap;
            std::vector<std::uint8_t> input(count * stride + 5);
            for (auto& b : input) b = static_cast<std::uint8_t>(rng.NextU64());
            // Lay the edge patterns over the first elements.
            const auto e32 = EdgeWords32();
            const auto e64 = EdgeWords64();
            for (std::size_t i = 0; i < count; ++i) {
              std::uint8_t* p = input.data() + i * stride;
              if (k.size == 4 && i < e32.size()) std::memcpy(p, &e32[i], 4);
              if (k.size == 8 && i < e64.size()) std::memcpy(p, &e64[i], 8);
            }
            ConvertStats got_stats, want_stats;
            ConvertContext ctx;
            ctx.src = src;
            ctx.dst = dst;
            ctx.pointer_delta = -0x1234;
            std::vector<std::uint8_t> want = input;
            ctx.stats = &want_stats;
            for (std::size_t i = 0; i < count; ++i) {
              ref::ConvertBasic(k.type, want.data() + i * stride, ctx);
            }
            std::vector<std::uint8_t> got = input;
            ctx.stats = &got_stats;
            reg.ConvertStrided(k.type, got, count, stride, ctx);
            const std::string what = reg.NameOf(k.type) + " " + src->name +
                                     "->" + dst->name + " stride " +
                                     std::to_string(stride) + " count " +
                                     std::to_string(count);
            ASSERT_EQ(got, want) << what;
            ExpectStatsEq(got_stats, want_stats, what);
            // Gap bytes and the bytes past the last element are untouched.
            for (std::size_t i = 0; i < count; ++i) {
              for (std::size_t b = k.size; b < stride; ++b) {
                ASSERT_EQ(got[i * stride + b], input[i * stride + b]) << what;
              }
            }
            for (std::size_t b = count * stride; b < got.size(); ++b) {
              ASSERT_EQ(got[b], input[b]) << what;
            }
          }
        }
      }
    }
  }
}

// The VAX kernels over a million random patterns in each direction between
// the shipped Sun and Firefly profiles, with lossy-event counts compared.
TEST(CodecBlock, SunFireflyFloatPagesMatchReferenceOnRandomPatterns) {
  Reg reg;
  const ArchProfile& sun = Sun3Profile();
  const ArchProfile& ffly = FireflyProfile();
  for (const Kind& k : {kKinds[4], kKinds[5]}) {
    std::vector<std::uint8_t> input;
    if (k.size == 4) {
      const auto w = Patterns<std::uint32_t>(kRandomPatterns, 4);
      input = AsBytes(w.data(), w.size() * 4);
    } else {
      const auto w = Patterns<std::uint64_t>(kRandomPatterns, 5);
      input = AsBytes(w.data(), w.size() * 8);
    }
    const std::size_t count = input.size() / k.size;
    for (auto [src, dst] : {std::pair{&sun, &ffly}, std::pair{&ffly, &sun}}) {
      ConvertStats got_stats, want_stats;
      ConvertContext ctx;
      ctx.src = src;
      ctx.dst = dst;
      std::vector<std::uint8_t> want = input;
      ctx.stats = &want_stats;
      for (std::size_t i = 0; i < count; ++i) {
        ref::ConvertBasic(k.type, want.data() + i * k.size, ctx);
      }
      std::vector<std::uint8_t> got = input;
      ctx.stats = &got_stats;
      reg.ConvertBuffer(k.type, got, count, ctx);
      const std::string what = reg.NameOf(k.type) + " " + src->name + "->" +
                               dst->name;
      ASSERT_EQ(got, want) << what;
      ExpectStatsEq(got_stats, want_stats, what);
      EXPECT_GT(want_stats.total_lossy(), 0) << what;
    }
  }
}

// A record's fields convert as per-field runs; the result equals the
// reference applied field element by field element.
TEST(CodecBlock, RecordMatchesReferenceFieldByField) {
  Reg reg;
  const TypeId rec = reg.RegisterRecord(
      "mixed", {{Reg::kInt, 3}, {Reg::kFloat, 3}, {Reg::kShort, 4},
                {Reg::kDouble, 1}, {Reg::kPointer, 1}, {Reg::kChar, 3}});
  const std::size_t size = reg.SizeOf(rec);
  const auto words = Patterns<std::uint64_t>(4096, 6);
  const std::vector<std::uint8_t> input = AsBytes(words.data(), 8 * 4096);
  const std::size_t count = input.size() / size;
  const ArchProfile& sun = Sun3Profile();
  const ArchProfile& ffly = FireflyProfile();
  for (auto [src, dst] : {std::pair{&sun, &ffly}, std::pair{&ffly, &sun}}) {
    ConvertStats got_stats, want_stats;
    ConvertContext ctx;
    ctx.src = src;
    ctx.dst = dst;
    ctx.pointer_delta = 0x40;
    std::vector<std::uint8_t> want = input;
    ctx.stats = &want_stats;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t* p = want.data() + i * size;
      for (auto [t, n, sz] : {std::tuple{Reg::kInt, 3, 4},
                              std::tuple{Reg::kFloat, 3, 4},
                              std::tuple{Reg::kShort, 4, 2},
                              std::tuple{Reg::kDouble, 1, 8},
                              std::tuple{Reg::kPointer, 1, 8},
                              std::tuple{Reg::kChar, 3, 1}}) {
        for (int j = 0; j < n; ++j, p += sz) ref::ConvertBasic(t, p, ctx);
      }
    }
    std::vector<std::uint8_t> got = input;
    ctx.stats = &got_stats;
    reg.ConvertBuffer(rec, got, count, ctx);
    ASSERT_EQ(got, want) << src->name << "->" << dst->name;
    ExpectStatsEq(got_stats, want_stats, src->name + "->" + dst->name);
  }
}

// LoadBlock/StoreBlock (and LoadScalar/StoreScalar, their one-element case)
// against the reference scalar accessors, for every accessor type on each
// representation, with counts that leave odd tails.
template <typename T>
void CheckTypedAccess(const ArchProfile& host, std::uint64_t seed) {
  using W = codec::WordOf<T>;
  constexpr std::size_t kMax = 4099;
  const auto words = Patterns<W>(kMax, seed);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            kMax}) {
    const std::string what = host.name + " " + std::to_string(sizeof(T)) +
                             "-byte count " + std::to_string(count);
    // Load: the words are a memory image in `host`'s representation.
    std::vector<T> got(kMax + 1, T{}), want(kMax + 1, T{});
    LoadBlock<T>(host, words.data(), count, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      want[i] = ref::LoadScalar<T>(host, words.data() + i);
      const T one = LoadScalar<T>(host, words.data() + i);
      ASSERT_EQ(std::bit_cast<W>(one), std::bit_cast<W>(want[i])) << what;
    }
    ASSERT_EQ(AsBytes(got.data(), got.size() * sizeof(T)),
              AsBytes(want.data(), want.size() * sizeof(T)))
        << what;
    // Store: the words are values; the image past `count` stays untouched.
    std::vector<T> values(count);
    for (std::size_t i = 0; i < count; ++i) {
      values[i] = std::bit_cast<T>(words[i]);
    }
    std::vector<W> got_img(kMax + 1, W{0x5A}), want_img(kMax + 1, W{0x5A}),
        one_img(kMax + 1, W{0x5A});
    StoreBlock<T>(host, got_img.data(), values.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ref::StoreScalar<T>(host, want_img.data() + i, values[i]);
      StoreScalar<T>(host, one_img.data() + i, values[i]);
    }
    ASSERT_EQ(got_img, want_img) << what;
    ASSERT_EQ(one_img, want_img) << what;
  }
}

TEST(CodecBlock, TypedAccessMatchesReference) {
  const ArchProfile little = LittleIeee();
  const ArchProfile big_vax = BigVax();
  const ArchProfile* profiles[] = {&Sun3Profile(), &FireflyProfile(), &little,
                                   &big_vax};
  std::uint64_t seed = 10;
  for (const ArchProfile* host : profiles) {
    CheckTypedAccess<std::int8_t>(*host, ++seed);
    CheckTypedAccess<std::int16_t>(*host, ++seed);
    CheckTypedAccess<std::int32_t>(*host, ++seed);
    CheckTypedAccess<std::uint64_t>(*host, ++seed);
    CheckTypedAccess<float>(*host, ++seed);
    CheckTypedAccess<double>(*host, ++seed);
  }
}

}  // namespace
}  // namespace mermaid::arch
