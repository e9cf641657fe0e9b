// Output checkers of the benchmark. Each check counts as one operation of
// the run; a failed check counts as a failed operation and makes the run
// incorrect. perfbench/src/selftest.cc plants a violation for each checker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mermaid/dsm/system.h"

namespace perfbench {

struct CheckLog {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void Merge(const CheckLog& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

// Compares an n x n result, read back through DSM, with the product the
// benchmark computed in plain memory: one check per row, exact equality
// (the inputs are small integers, so every conversion and sum is exact).
template <typename T>
void CheckMatrix(CheckLog& log, const std::vector<T>& got,
                 const std::vector<T>& want, int n) {
  const bool sized = got.size() == want.size() &&
                     want.size() == static_cast<std::size_t>(n) * n;
  log.Expect(sized, "result matrix has the wrong size");
  if (!sized) return;
  for (int i = 0; i < n; ++i) {
    int bad = -1;
    for (int j = 0; j < n && bad < 0; ++j) {
      const std::size_t k = static_cast<std::size_t>(i) * n + j;
      if (!(got[k] == want[k])) bad = j;
    }
    log.Expect(bad < 0, "result element (" + std::to_string(i) + ", " +
                            std::to_string(bad) + ") differs from the "
                            "plain-memory product");
  }
}

// fleet-dir's stamps: page j written in round r >= 1 holds r * kStampBase
// + j; an unwritten page holds 0 (round 0).
inline constexpr std::int32_t kStampBase = 1'000'000;
inline std::int32_t Stamp(int round, int page) {
  return round * kStampBase + page;
}

// One read of another worker's page, in the reader's program order.
struct StampRead {
  std::int32_t page = 0;
  std::int32_t round = 0;  // the reader's round, 1-based
  std::int32_t value = 0;
};

// Checks one reader's reads of single-writer pages, one check per read:
// the value is a stamp of that page; it was written in the reader's round
// or the one before (rounds are barrier-separated and the DSM is
// sequentially consistent); and per page it never goes backwards.
inline void CheckStampReads(CheckLog& log, int reader,
                            const std::vector<StampRead>& reads) {
  std::map<std::int32_t, std::int32_t> last;  // page -> last round seen
  for (const StampRead& r : reads) {
    const std::int32_t round = r.value / kStampBase;
    const bool names_page = r.value == 0 || r.value % kStampBase == r.page;
    const bool in_window = round == r.round || round == r.round - 1;
    auto it = last.find(r.page);
    const bool monotone = it == last.end() || round >= it->second;
    last[r.page] = round;
    log.Expect(names_page && in_window && monotone,
               "reader " + std::to_string(reader) + " saw page " +
                   std::to_string(r.page) + " at stamp " +
                   std::to_string(r.value) + " in round " +
                   std::to_string(r.round) +
                   (monotone ? "" : " (went backwards)"));
  }
}

// Every run ends quiescent: no manager entry busy, no transfer queued.
inline void CheckQuiescence(CheckLog& log,
                            const mermaid::dsm::System::QuiescenceReport& q) {
  log.Expect(q.busy_entries == 0 && q.pending_transfers == 0,
             "not quiescent: " + std::to_string(q.busy_entries) +
                 " busy manager entries, " +
                 std::to_string(q.pending_transfers) + " pending transfers");
}

}  // namespace perfbench
