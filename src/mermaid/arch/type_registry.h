// Type registry: the "table specifying the mapping of data types to
// conversion routines" of §2.3.
//
// Mermaid requires every DSM page to hold data of one type only. The typed
// allocator records the page's TypeId; when a page migrates between
// incompatible hosts, the DSM system looks the type up here and converts the
// page in place. Built-in types (char/short/int/long/float/double/pointer)
// come pre-registered; user-defined record types are composed from fields —
// mirroring the paper's "in the case of compound data structures, the
// conversion routine calls the appropriate conversion routine for each
// field" — and fully custom per-element converters can be registered for
// anything else.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/codec.h"
#include "mermaid/base/stats.h"
#include "mermaid/base/time.h"

namespace mermaid::arch {

using TypeId = std::uint16_t;

enum class BasicKind : std::uint8_t {
  kChar,     // 1 byte, never converted
  kShort,    // 2 bytes, byte swap
  kInt,      // 4 bytes, byte swap
  kLong,     // 8 bytes, byte swap
  kFloat,    // 4 bytes, IEEE single <-> VAX F
  kDouble,   // 8 bytes, IEEE double <-> VAX D
  kPointer,  // 8-byte DSM global address: byte swap + relocation delta
};

// One field of a record: `count` consecutive elements of `type`. Fields are
// laid out sequentially with no padding; the paper's requirement that "the
// size of each data type must be the same on each host, and the order of
// the fields within compound structures must be the same" is enforced by
// construction.
struct Field {
  TypeId type;
  std::uint32_t count = 1;
};

// Everything a conversion routine needs to know about the transfer, matching
// the paper's converter argument list (direction + pointer offset).
struct ConvertContext {
  const ArchProfile* src = nullptr;
  const ArchProfile* dst = nullptr;
  // Added to every kPointer value: (dst DSM base) - (src DSM base). Zero in
  // the shipped system since all hosts map DSM at the same base (§2.3), but
  // implemented and tested per the paper's mechanism.
  std::int64_t pointer_delta = 0;
  ConvertStats* stats = nullptr;  // optional lossy-event counters
};

// Converts one element in place; `bytes` spans exactly the element.
using CustomConverter =
    std::function<void(std::span<std::uint8_t> bytes, const ConvertContext&)>;

class TypeRegistry {
 public:
  // Pre-registered basic types.
  static constexpr TypeId kChar = 0;
  static constexpr TypeId kShort = 1;
  static constexpr TypeId kInt = 2;
  static constexpr TypeId kLong = 3;
  static constexpr TypeId kFloat = 4;
  static constexpr TypeId kDouble = 5;
  static constexpr TypeId kPointer = 6;

  TypeRegistry();

  // Registers a record type laid out as the given field sequence.
  TypeId RegisterRecord(std::string name, std::vector<Field> fields);

  // Registers an opaque type with a user-supplied per-element converter.
  TypeId RegisterCustom(std::string name, std::size_t size,
                        CustomConverter converter);

  std::size_t SizeOf(TypeId t) const;
  const std::string& NameOf(TypeId t) const;
  bool IsValid(TypeId t) const { return t < types_.size(); }

  // Modeled conversion cost of one element of `t` on `host` (Table 3 rates).
  SimDuration ModeledElementCost(const ArchProfile& host, TypeId t) const;

  // Converts `count` consecutive elements of `t` in place from the source
  // host's representation to the destination host's (ctx.src -> ctx.dst).
  // `data` must span at least count * SizeOf(t) bytes.
  void ConvertBuffer(TypeId t, std::span<std::uint8_t> data,
                     std::size_t count, const ConvertContext& ctx) const;

  // Converts `count` elements of `t` placed `stride` bytes apart (stride >=
  // SizeOf(t); the gap bytes are untouched). This is the bulk entry point
  // for page layouts that round elements up to a slot size — one call
  // converts the whole page instead of one ConvertBuffer call per element.
  void ConvertStrided(TypeId t, std::span<std::uint8_t> data,
                      std::size_t count, std::size_t stride,
                      const ConvertContext& ctx) const;

 private:
  struct TypeInfo {
    std::string name;
    std::size_t size = 0;
    bool is_basic = false;
    BasicKind basic = BasicKind::kChar;
    std::vector<Field> fields;        // for records
    CustomConverter custom;           // for custom types
  };

  // Converts `count` elements of `info` placed `stride` bytes apart.
  void ConvertRun(const TypeInfo& info, std::uint8_t* p, std::size_t count,
                  std::size_t stride, const ConvertContext& ctx) const;

  std::vector<TypeInfo> types_;
};

}  // namespace mermaid::arch
