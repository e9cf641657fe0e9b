#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

std::uint32_t SpanLog::Open(const char* name, std::uint32_t parent,
                            std::int64_t sim_now) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.host_begin_ns = HostNow();
  s.sim_begin_ns = sim_now;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::Close(std::uint32_t id, std::int64_t sim_now) {
  const std::int64_t now = HostNow();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_.at(id - 1);
  s.host_end_ns = now;
  s.sim_end_ns = sim_now;
}

void SpanLog::Add(const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\tname\telems\thost_begin_ns\thost_end_ns\t"
               "sim_begin_ns\tsim_end_ns\n");
  const std::vector<Span> spans = Snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%u\t%s\t%llu\t%lld\t%lld\t%lld\t%lld\n", i + 1,
                 s.parent, s.name, static_cast<unsigned long long>(s.elems),
                 static_cast<long long>(s.host_begin_ns),
                 static_cast<long long>(s.host_end_ns),
                 static_cast<long long>(s.sim_begin_ns),
                 static_cast<long long>(s.sim_end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<SpanTotals> Summarize(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns.at(s.parent - 1) += s.host_end_ns - s.host_begin_ns;
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.calls;
    if (s.blocked()) {
      ++t.blocked;
      t.sim_blocked_ns += s.sim_end_ns - s.sim_begin_ns;
    } else {
      t.elems += s.elems;
      t.host_self_ns += s.host_end_ns - s.host_begin_ns - child_ns[i];
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

}  // namespace perfbench
