#include "mermaid/arch/type_registry.h"

#include "mermaid/base/bytes.h"
#include "mermaid/base/check.h"

namespace mermaid::arch {

namespace {

std::size_t BasicSize(BasicKind k) {
  switch (k) {
    case BasicKind::kChar:
      return 1;
    case BasicKind::kShort:
      return 2;
    case BasicKind::kInt:
    case BasicKind::kFloat:
      return 4;
    case BasicKind::kLong:
    case BasicKind::kDouble:
    case BasicKind::kPointer:
      return 8;
  }
  return 0;
}

// Same-format floats pass through (VAX images are byte-defined, IEEE
// follows byte order); otherwise one VAX codec kernel runs over the block.
template <typename W>
void ConvertFloats(std::uint8_t* p, std::size_t count, std::size_t stride,
                   const ConvertContext& ctx) {
  const ArchProfile& src = *ctx.src;
  const ArchProfile& dst = *ctx.dst;
  if (src.float_format == dst.float_format) {
    if (src.float_format == FloatFormat::kIeee754 &&
        src.byte_order != dst.byte_order) {
      codec::SwapBlock<W>(p, stride, p, stride, count);
    }
  } else if (src.float_format == FloatFormat::kVax) {
    codec::DecodeVaxBlock<W>(p, stride, p, stride, count, dst.byte_order,
                             ctx.stats);
  } else {
    codec::EncodeVaxBlock<W>(p, stride, p, stride, count, src.byte_order,
                             ctx.stats);
  }
}

// Converts `count` elements of basic kind `k` placed `stride` bytes apart,
// in place, choosing the kernel once for the whole run.
void ConvertBasic(BasicKind k, std::uint8_t* p, std::size_t count,
                  std::size_t stride, const ConvertContext& ctx) {
  const bool swap = ctx.src->byte_order != ctx.dst->byte_order;
  switch (k) {
    case BasicKind::kChar:
      break;  // character data needs no conversion (Fig. 2)
    case BasicKind::kShort:
      if (swap) codec::SwapBlock<std::uint16_t>(p, stride, p, stride, count);
      break;
    case BasicKind::kInt:
      if (swap) codec::SwapBlock<std::uint32_t>(p, stride, p, stride, count);
      break;
    case BasicKind::kLong:
      if (swap) codec::SwapBlock<std::uint64_t>(p, stride, p, stride, count);
      break;
    case BasicKind::kPointer: {
      // Byte swap + relocation delta, element by element.
      const base::ByteOrder src = ctx.src->byte_order;
      const base::ByteOrder dst = ctx.dst->byte_order;
      const std::int64_t delta = ctx.pointer_delta;
      codec::Map<std::uint64_t>(p, stride, p, stride, count,
                                [=](std::uint64_t v) {
        if (src != base::NativeOrder()) v = base::ByteSwap(v);
        v += static_cast<std::uint64_t>(delta);  // two's-complement add
        if (dst != base::NativeOrder()) v = base::ByteSwap(v);
        return v;
      });
      break;
    }
    case BasicKind::kFloat:
      ConvertFloats<std::uint32_t>(p, count, stride, ctx);
      break;
    case BasicKind::kDouble:
      ConvertFloats<std::uint64_t>(p, count, stride, ctx);
      break;
  }
}

}  // namespace

TypeRegistry::TypeRegistry() {
  auto add_basic = [this](const char* name, BasicKind k) {
    TypeInfo info;
    info.name = name;
    info.size = BasicSize(k);
    info.is_basic = true;
    info.basic = k;
    types_.push_back(std::move(info));
  };
  add_basic("char", BasicKind::kChar);      // kChar = 0
  add_basic("short", BasicKind::kShort);    // kShort = 1
  add_basic("int", BasicKind::kInt);        // kInt = 2
  add_basic("long", BasicKind::kLong);      // kLong = 3
  add_basic("float", BasicKind::kFloat);    // kFloat = 4
  add_basic("double", BasicKind::kDouble);  // kDouble = 5
  add_basic("ptr", BasicKind::kPointer);    // kPointer = 6
}

TypeId TypeRegistry::RegisterRecord(std::string name,
                                    std::vector<Field> fields) {
  MERMAID_CHECK(!fields.empty());
  TypeInfo info;
  info.name = std::move(name);
  for (const Field& f : fields) {
    MERMAID_CHECK(IsValid(f.type));
    MERMAID_CHECK(f.count > 0);
    info.size += SizeOf(f.type) * f.count;
  }
  info.fields = std::move(fields);
  types_.push_back(std::move(info));
  return static_cast<TypeId>(types_.size() - 1);
}

TypeId TypeRegistry::RegisterCustom(std::string name, std::size_t size,
                                    CustomConverter converter) {
  MERMAID_CHECK(size > 0);
  TypeInfo info;
  info.name = std::move(name);
  info.size = size;
  info.custom = std::move(converter);
  types_.push_back(std::move(info));
  return static_cast<TypeId>(types_.size() - 1);
}

std::size_t TypeRegistry::SizeOf(TypeId t) const {
  MERMAID_CHECK(IsValid(t));
  return types_[t].size;
}

const std::string& TypeRegistry::NameOf(TypeId t) const {
  MERMAID_CHECK(IsValid(t));
  return types_[t].name;
}

SimDuration TypeRegistry::ModeledElementCost(const ArchProfile& host,
                                             TypeId t) const {
  MERMAID_CHECK(IsValid(t));
  const TypeInfo& info = types_[t];
  if (info.is_basic) {
    switch (info.basic) {
      case BasicKind::kChar:
        return static_cast<SimDuration>(host.convert.per_char_ns);
      case BasicKind::kShort:
        return static_cast<SimDuration>(host.convert.per_short_ns);
      case BasicKind::kInt:
        return static_cast<SimDuration>(host.convert.per_int_ns);
      case BasicKind::kLong:
      case BasicKind::kPointer:
        // Modeled as two 4-byte swaps.
        return static_cast<SimDuration>(2 * host.convert.per_int_ns);
      case BasicKind::kFloat:
        return static_cast<SimDuration>(host.convert.per_float_ns);
      case BasicKind::kDouble:
        return static_cast<SimDuration>(host.convert.per_double_ns);
    }
  }
  if (!info.fields.empty()) {
    SimDuration total = 0;
    for (const Field& f : info.fields) {
      total += ModeledElementCost(host, f.type) * f.count;
    }
    return total;
  }
  // Custom converter: modeled at the int rate per 4 bytes, matching the
  // paper's observation that user-defined conversions are "comparable".
  return static_cast<SimDuration>(host.convert.per_int_ns *
                                  (static_cast<double>(info.size) / 4.0));
}

void TypeRegistry::ConvertRun(const TypeInfo& info, std::uint8_t* p,
                              std::size_t count, std::size_t stride,
                              const ConvertContext& ctx) const {
  if (info.is_basic) {
    ConvertBasic(info.basic, p, count, stride, ctx);
    return;
  }
  for (std::size_t i = 0; i < count; ++i, p += stride) {
    if (info.custom) {
      info.custom(std::span<std::uint8_t>(p, info.size), ctx);
      continue;
    }
    // A record converts field by field, each field's elements as one run.
    std::uint8_t* q = p;
    for (const Field& f : info.fields) {
      const TypeInfo& ft = types_[f.type];
      ConvertRun(ft, q, f.count, ft.size, ctx);
      q += ft.size * f.count;
    }
  }
}

void TypeRegistry::ConvertBuffer(TypeId t, std::span<std::uint8_t> data,
                                 std::size_t count,
                                 const ConvertContext& ctx) const {
  ConvertStrided(t, data, count, SizeOf(t), ctx);
}

void TypeRegistry::ConvertStrided(TypeId t, std::span<std::uint8_t> data,
                                  std::size_t count, std::size_t stride,
                                  const ConvertContext& ctx) const {
  MERMAID_CHECK(IsValid(t));
  MERMAID_CHECK(ctx.src != nullptr && ctx.dst != nullptr);
  const TypeInfo& info = types_[t];
  MERMAID_CHECK(stride >= info.size);
  if (count == 0) return;
  MERMAID_CHECK(data.size() >= (count - 1) * stride + info.size);
  ConvertRun(info, data.data(), count, stride, ctx);
}

}  // namespace mermaid::arch
