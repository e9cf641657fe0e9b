// In-memory span log of the traced run.
//
// The benchmark records a span around each call it makes into a layer of
// the program: a name "<layer>.<call>", host begin/end (steady clock), and
// modeled begin/end where the call runs inside the simulation, plus the
// span that made the call. Spans stay in memory until the run ends and are
// then written out as one tab-separated file.
//
// Under the serialized engine a call that blocks (its modeled end is later
// than its modeled begin) lets other simulated processes run, so its host
// interval includes their work. Host self time is therefore summed only
// over spans that did not block; blocking spans are attributed in modeled
// time.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Modeled time of a direct call made outside the simulation.
inline constexpr std::int64_t kNoSimTime = -1;

struct Span {
  const char* name = "";      // a string literal
  std::uint32_t parent = 0;   // id of the calling span, 0 for a root
  std::uint64_t elems = 0;    // elements an access call moved, else 0
  std::int64_t host_begin_ns = 0;  // relative to the log's origin
  std::int64_t host_end_ns = 0;
  std::int64_t sim_begin_ns = kNoSimTime;
  std::int64_t sim_end_ns = kNoSimTime;

  bool blocked() const { return sim_end_ns > sim_begin_ns; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Nanoseconds since the log was created.
  std::int64_t HostNow() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Opens a span that is closed later (threads, phases); ids start at 1.
  std::uint32_t Open(const char* name, std::uint32_t parent,
                     std::int64_t sim_now);
  void Close(std::uint32_t id, std::int64_t sim_now);
  // Records a finished span.
  void Add(const Span& s);

  std::vector<Span> Snapshot() const;
  // One line per span: id, parent, name, elems, host and modeled bounds.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-name totals: calls, of which blocked, host self time of the calls
// that did not block (duration minus the part their children cover), and
// modeled time of the calls that blocked.
struct SpanTotals {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t blocked = 0;
  std::uint64_t elems = 0;           // over non-blocking calls
  std::int64_t host_self_ns = 0;     // over non-blocking calls
  std::int64_t sim_blocked_ns = 0;   // over blocking calls
};
std::vector<SpanTotals> Summarize(const std::vector<Span>& spans);

}  // namespace perfbench
