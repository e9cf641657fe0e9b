#include "micro.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/base/check.h"
#include "mermaid/base/stats.h"
#include "mermaid/base/wire.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/net/fragment.h"
#include "stats.h"

namespace perfbench {

using namespace mermaid;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPage = 8192;  // a Sun DSM page
constexpr int kBatches = 15;

std::atomic<std::uint64_t> g_sink{0};

// Keeps a computed value alive so the timed work is not optimized away.
void Sink(double v) {
  g_sink.fetch_add(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

// Stops the compiler from carrying loads of `p` across repetitions.
void Clobber(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

double Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Runs `batch` kBatches times (each returns its own cost per unit) inside
// one span named `name`, and returns the median.
template <typename Fn>
double Timed(SpanLog& spans, const char* name, Fn&& batch) {
  std::vector<double> per_unit;
  const std::int64_t h0 = spans.HostNow();
  for (int b = 0; b < kBatches; ++b) per_unit.push_back(batch());
  spans.Add(Span{name, 0, 0, h0, spans.HostNow(), kNoSimTime, kNoSimTime});
  return Median(per_unit);
}

// LoadScalar on the Firefly profile over one page, ns per element.
template <typename T>
double LoadNs(SpanLog& spans, const char* name) {
  const arch::ArchProfile& ffly = arch::FireflyProfile();
  constexpr std::size_t kCount = kPage / sizeof(T);
  std::vector<std::uint8_t> page(kPage);
  for (std::size_t i = 0; i < kCount; ++i) {
    arch::StoreScalar<T>(ffly, page.data() + i * sizeof(T),
                         static_cast<T>(static_cast<int>(i % 19) - 9));
  }
  constexpr int kReps = 64;
  return Timed(spans, name, [&] {
    double sum = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      Clobber(page.data());
      for (std::size_t i = 0; i < kCount; ++i) {
        sum += static_cast<double>(
            arch::LoadScalar<T>(ffly, page.data() + i * sizeof(T)));
      }
    }
    const auto t1 = Clock::now();
    Sink(sum);
    return Ns(t0, t1) / (kReps * kCount);
  });
}

// A record of every converted basic kind: int, double, short[2], float.
constexpr std::size_t kRecordBytes = 4 + 8 + 2 * 2 + 4;

void FillSunPage(arch::TypeId t, std::vector<std::uint8_t>& page) {
  const arch::ArchProfile& sun = arch::Sun3Profile();
  std::uint8_t* p = page.data();
  for (std::size_t i = 0; i < kPage / 8; ++i) {
    const int v = static_cast<int>(i % 19) - 9;
    switch (t) {
      case arch::TypeRegistry::kShort:
        for (int k = 0; k < 4; ++k) {
          arch::StoreScalar<std::int16_t>(sun, p + 8 * i + 2 * k,
                                          static_cast<std::int16_t>(v));
        }
        break;
      case arch::TypeRegistry::kInt:
        arch::StoreScalar<std::int32_t>(sun, p + 8 * i, v);
        arch::StoreScalar<std::int32_t>(sun, p + 8 * i + 4, v);
        break;
      case arch::TypeRegistry::kFloat:
        arch::StoreScalar<float>(sun, p + 8 * i, static_cast<float>(v));
        arch::StoreScalar<float>(sun, p + 8 * i + 4, static_cast<float>(v));
        break;
      case arch::TypeRegistry::kDouble:
        arch::StoreScalar<double>(sun, p + 8 * i, v);
        break;
      default:
        break;
    }
  }
  if (t > arch::TypeRegistry::kPointer) {  // the record type
    for (std::size_t i = 0; i + kRecordBytes <= kPage; i += kRecordBytes) {
      const int v = static_cast<int>(i % 19) - 9;
      arch::StoreScalar<std::int32_t>(sun, p + i, v);
      arch::StoreScalar<double>(sun, p + i + 4, v);
      arch::StoreScalar<std::int16_t>(sun, p + i + 12,
                                      static_cast<std::int16_t>(v));
      arch::StoreScalar<std::int16_t>(sun, p + i + 14,
                                      static_cast<std::int16_t>(v));
      arch::StoreScalar<float>(sun, p + i + 16, static_cast<float>(v));
    }
  }
}

// TypeRegistry::ConvertBuffer Sun -> Firefly over one page, ns per element.
double ConvertNs(SpanLog& spans, const char* name,
                 const arch::TypeRegistry& reg, arch::TypeId t) {
  const std::size_t count = kPage / reg.SizeOf(t);
  std::vector<std::uint8_t> pristine(kPage), work(kPage);
  FillSunPage(t, pristine);
  arch::ConvertContext ctx;
  ctx.src = &arch::Sun3Profile();
  ctx.dst = &arch::FireflyProfile();
  constexpr int kReps = 32;
  return Timed(spans, name, [&] {
    double ns = 0;
    for (int r = 0; r < kReps; ++r) {
      std::memcpy(work.data(), pristine.data(), kPage);
      const auto t0 = Clock::now();
      reg.ConvertBuffer(t, work, count, ctx);
      const auto t1 = Clock::now();
      ns += Ns(t0, t1);
    }
    Sink(static_cast<double>(work[kPage / 2]));
    return ns / (kReps * count);
  });
}

// Reassembly needs a clock only; nothing here runs a process.
class ClockOnlyRuntime final : public sim::Runtime {
 public:
  SimTime Now() override { return 0; }
  void Delay(SimDuration) override {}
  void Spawn(std::string, std::function<void()>, bool) override {
    MERMAID_CHECK_MSG(false, "ClockOnlyRuntime runs no processes");
  }
  std::shared_ptr<sim::ChanCore> MakeChan(
      std::function<void(void*)>) override {
    return nullptr;
  }
};

// The fragments of one page-reply message (a protocol head plus an 8 KB
// page), laid out as the fragmenter puts them on the wire.
std::vector<net::Packet> PageMessageFragments(std::uint64_t msg_id,
                                              const base::Buffer& page) {
  constexpr std::size_t kHead = 40;
  base::BufferChain msg(std::vector<std::uint8_t>(kHead, 0x5A));
  msg.Append(page);
  const std::size_t max_payload =
      net::Network::Config{}.mtu - net::kFragHeaderBytes;
  const std::size_t count = (msg.size() + max_payload - 1) / max_payload;
  std::vector<net::Packet> pkts;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t off = i * max_payload;
    const std::size_t len = std::min(max_payload, msg.size() - off);
    base::WireWriter w;
    w.U64(msg_id);
    w.U16(1);
    w.U16(static_cast<std::uint16_t>(i));
    w.U16(static_cast<std::uint16_t>(count));
    w.U8(static_cast<std::uint8_t>(net::MsgKind::kData));
    const base::BufferChain range = msg.Slice(off, len);
    for (std::size_t c = 0; c + 1 < range.chunk_count(); ++c) {
      w.Raw(range.chunk(c).span());
    }
    net::Packet pkt;
    pkt.src = 1;
    pkt.dst = 0;
    pkt.kind = net::MsgKind::kData;
    pkt.payload = range.chunk(range.chunk_count() - 1);
    pkt.bytes = std::move(w).Take();
    pkts.push_back(std::move(pkt));
  }
  return pkts;
}

// Reassembler::OnPacket over one page message's fragments, us per message.
double ReassemblyUs(SpanLog& spans) {
  ClockOnlyRuntime rt;
  net::Reassembler reasm(rt);
  const base::Buffer page(std::vector<std::uint8_t>(kPage, 0xA5));
  std::uint64_t msg_id = 0;
  constexpr int kReps = 64;
  return Timed(spans, "net.Reassembler::OnPacket", [&] {
    double ns = 0;
    for (int r = 0; r < kReps; ++r) {
      std::vector<net::Packet> pkts = PageMessageFragments(++msg_id, page);
      std::size_t delivered = 0;
      const auto t0 = Clock::now();
      for (net::Packet& pkt : pkts) {
        auto m = reasm.OnPacket(std::move(pkt));
        if (m) delivered += m->payload.size();
      }
      const auto t1 = Clock::now();
      MERMAID_CHECK_MSG(delivered == kPage + 40, "reassembly lost bytes");
      ns += Ns(t0, t1);
    }
    return ns / kReps / 1000.0;
  });
}

// String-keyed StatsRegistry::Inc, ns per call.
double StatsIncNs(SpanLog& spans) {
  base::StatsRegistry reg;
  constexpr int kCalls = 20000;
  return Timed(spans, "base.StatsRegistry::Inc", [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) reg.Inc("dsm.read_faults");
    const auto t1 = Clock::now();
    Sink(static_cast<double>(reg.Count("dsm.read_faults")));
    return Ns(t0, t1) / kCalls;
  });
}

// WireWriter encode + WireReader decode of a page-request-sized body
// (opcode, call id, source, role, page, has-copy, hops), ns per round trip.
double WireRoundtripNs(SpanLog& spans) {
  constexpr int kCalls = 20000;
  return Timed(spans, "base.Wire::RoundTrip", [&] {
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      base::WireWriter w;
      w.U8(3);
      w.U64(static_cast<std::uint64_t>(i));
      w.U16(7);
      w.U8(0);
      w.U32(static_cast<std::uint32_t>(i));
      w.U8(1);
      w.U8(0);
      const std::vector<std::uint8_t> bytes = std::move(w).Take();
      base::WireReader r(bytes);
      sum += r.U8() + r.U64() + r.U16() + r.U8() + r.U32() + r.U8() + r.U8();
      MERMAID_CHECK(r.ok());
    }
    const auto t1 = Clock::now();
    Sink(static_cast<double>(sum));
    return Ns(t0, t1) / kCalls;
  });
}

}  // namespace

std::map<std::string, double> RunMicro(const Inputs& in, SpanLog& spans) {
  std::map<std::string, double> m;
  m["arch.load_ns.int"] = LoadNs<std::int32_t>(spans, "arch.LoadScalar<int>");
  m["arch.load_ns.float"] = LoadNs<float>(spans, "arch.LoadScalar<float>");
  m["arch.load_ns.double"] = LoadNs<double>(spans, "arch.LoadScalar<double>");

  arch::TypeRegistry reg;
  const arch::TypeId record = reg.RegisterRecord(
      "perfbench_record", {{arch::TypeRegistry::kInt, 1},
                           {arch::TypeRegistry::kDouble, 1},
                           {arch::TypeRegistry::kShort, 2},
                           {arch::TypeRegistry::kFloat, 1}});
  MERMAID_CHECK(reg.SizeOf(record) == kRecordBytes);
  const struct {
    const char* metric;
    const char* span;
    arch::TypeId type;
  } kConverts[] = {
      {"arch.convert_ns.short", "arch.ConvertBuffer<short>",
       arch::TypeRegistry::kShort},
      {"arch.convert_ns.int", "arch.ConvertBuffer<int>",
       arch::TypeRegistry::kInt},
      {"arch.convert_ns.float", "arch.ConvertBuffer<float>",
       arch::TypeRegistry::kFloat},
      {"arch.convert_ns.double", "arch.ConvertBuffer<double>",
       arch::TypeRegistry::kDouble},
      {"arch.convert_ns.record", "arch.ConvertBuffer<record>", record},
  };
  for (const auto& c : kConverts) {
    m[c.metric] = ConvertNs(spans, c.span, reg, c.type);
  }

  m["net.reassembly_us_per_8k"] = ReassemblyUs(spans);
  m["base.stats_inc_ns"] = StatsIncNs(spans);
  m["base.wire_roundtrip_ns"] = WireRoundtripNs(spans);

  // One dsm::Directory construction at the workload's size and mode, and
  // BaseManagerOf over every page.
  const DirectoryShape shape = DirectoryShapeOf(in);
  m["dsm.dir_build_ms"] = Timed(spans, "dsm.Directory::Directory", [&] {
    const auto t0 = Clock::now();
    dsm::Directory d(shape.cfg, 0, shape.hosts, shape.pages);
    const auto t1 = Clock::now();
    Sink(static_cast<double>(d.BaseManagerOf(0)));
    return Ns(t0, t1) / 1e6;
  });
  dsm::Directory dir(shape.cfg, 0, shape.hosts, shape.pages);
  constexpr int kLookupReps = 16;
  m["dsm.dir_lookup_ns"] = Timed(spans, "dsm.Directory::BaseManagerOf", [&] {
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < kLookupReps; ++r) {
      for (dsm::PageNum p = 0; p < shape.pages; ++p) {
        sum += dir.BaseManagerOf(p);
      }
    }
    const auto t1 = Clock::now();
    Sink(static_cast<double>(sum));
    return Ns(t0, t1) / (kLookupReps * static_cast<double>(shape.pages));
  });
  return m;
}

}  // namespace perfbench
