// Stable 64-bit digest for frozen test fixtures (FNV-1a). Unlike std::hash,
// the value is fixed by this definition, so a committed constant stays
// comparable across compilers and standard libraries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mermaid::fixture {

inline std::uint64_t Fnv1a64(std::string_view s,
                             std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Digest of a sequence of lines; each is terminated by '\n' so entry
// boundaries are part of the hash.
inline std::uint64_t HashLines(const std::vector<std::string>& lines) {
  std::uint64_t h = Fnv1a64({});
  for (const std::string& l : lines) h = Fnv1a64("\n", Fnv1a64(l, h));
  return h;
}

}  // namespace mermaid::fixture
