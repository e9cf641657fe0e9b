// Table 3 — Costs of data conversions (ms).
//
//              8 KB page   1 KB page        (on a Firefly)
//   int          10.9        1.3
//   short        11.0        1.3
//   float        21.6        2.7
//   double       28.9        3.6
//   + user record (3 int, 3 float, 4 short): 19.6 ms / 8 KB on a Sun3/60.
//
// Two parts:
//   1. the modeled virtual-time costs (what the DSM engine charges when a
//      page crosses representations), checked against the paper, and
//   2. google-benchmark timings of the *real* conversion routines on the
//      build machine — the codecs actually execute on every transfer —
//      and of the typed accessors' block kernels, which run on every
//      ReadBlock/WriteBlock page run.
#include <cstdint>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/base/rng.h"

namespace mermaid {
namespace {

using Reg = arch::TypeRegistry;

arch::ConvertContext SunToFfly() {
  arch::ConvertContext ctx;
  ctx.src = &benchutil::Sun();
  ctx.dst = &benchutil::Ffly();
  return ctx;
}

template <arch::TypeId kType>
void BM_ConvertPage(benchmark::State& state) {
  Reg reg;
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / reg.SizeOf(kType);
  std::vector<std::uint8_t> page(bytes);
  base::Rng rng(1);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng.NextU64());
  auto ctx = SunToFfly();
  for (auto _ : state) {
    reg.ConvertBuffer(kType, page, count, ctx);
    benchmark::DoNotOptimize(page.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bytes);
}

BENCHMARK_TEMPLATE(BM_ConvertPage, Reg::kInt)->Arg(8192)->Arg(1024);
BENCHMARK_TEMPLATE(BM_ConvertPage, Reg::kShort)->Arg(8192)->Arg(1024);
BENCHMARK_TEMPLATE(BM_ConvertPage, Reg::kFloat)->Arg(8192)->Arg(1024);
BENCHMARK_TEMPLATE(BM_ConvertPage, Reg::kDouble)->Arg(8192)->Arg(1024);

// The paper's user record (3 int, 3 float, 4 short): each field converts as
// one run of its basic kind.
void BM_ConvertPageRecord(benchmark::State& state) {
  Reg reg;
  const arch::TypeId rec = reg.RegisterRecord(
      "paper_record", {{Reg::kInt, 3}, {Reg::kFloat, 3}, {Reg::kShort, 4}});
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / reg.SizeOf(rec);
  std::vector<std::uint8_t> page(bytes);
  base::Rng rng(1);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng.NextU64());
  auto ctx = SunToFfly();
  for (auto _ : state) {
    reg.ConvertBuffer(rec, page, count, ctx);
    benchmark::DoNotOptimize(page.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

BENCHMARK(BM_ConvertPageRecord)->Arg(8192);

// The typed accessors' block kernels (Host::ReadBlock/WriteBlock run one
// per page run): decoding an 8 KB page of a host's memory image into native
// values, and encoding it back. On a Firefly, int is a memcpy and float and
// double run the VAX codecs; on a Sun every kind is a byte swap.
const arch::ArchProfile& HostFor(int sun) {
  return sun != 0 ? benchutil::Sun() : benchutil::Ffly();
}

template <typename T>
std::vector<T> PageValues() {
  std::vector<T> v(8192 / sizeof(T));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<T>(static_cast<int>(i % 19) - 9) / T{4};
  }
  return v;
}

template <typename T>
void BM_LoadBlock(benchmark::State& state) {
  const arch::ArchProfile& host = HostFor(static_cast<int>(state.range(0)));
  const std::vector<T> values = PageValues<T>();
  std::vector<std::uint8_t> image(8192);
  arch::StoreBlock<T>(host, image.data(), values.data(), values.size());
  std::vector<T> out(values.size());
  for (auto _ : state) {
    arch::LoadBlock<T>(host, image.data(), out.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}

template <typename T>
void BM_StoreBlock(benchmark::State& state) {
  const arch::ArchProfile& host = HostFor(static_cast<int>(state.range(0)));
  const std::vector<T> values = PageValues<T>();
  std::vector<std::uint8_t> image(8192);
  for (auto _ : state) {
    arch::StoreBlock<T>(host, image.data(), values.data(), values.size());
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}

// Arg 0 = Firefly, 1 = Sun.
BENCHMARK_TEMPLATE(BM_LoadBlock, std::int32_t)->ArgName("sun")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_LoadBlock, float)->ArgName("sun")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_LoadBlock, double)->ArgName("sun")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_StoreBlock, std::int32_t)->ArgName("sun")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_StoreBlock, float)->ArgName("sun")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_StoreBlock, double)->ArgName("sun")->Arg(0)->Arg(1);

void PrintModeledTable(benchutil::JsonReport& report) {
  Reg reg;
  const arch::ArchProfile& ffly = benchutil::Ffly();
  const arch::ArchProfile& sun = benchutil::Sun();
  struct Row {
    const char* name;
    arch::TypeId type;
    double paper8, paper1;
  };
  const Row rows[] = {
      {"int", Reg::kInt, 10.9, 1.3},
      {"short", Reg::kShort, 11.0, 1.3},
      {"float", Reg::kFloat, 21.6, 2.7},
      {"double", Reg::kDouble, 28.9, 3.6},
  };
  benchutil::PrintHeader(
      "Table 3: modeled data conversion costs on a Firefly (ms)");
  std::printf("%-8s %14s %14s %12s %12s\n", "", "8KB(model)", "1KB(model)",
              "8KB(paper)", "1KB(paper)");
  for (const Row& r : rows) {
    const double per = ToMillis(reg.ModeledElementCost(ffly, r.type));
    const double e8 = 8192.0 / reg.SizeOf(r.type);
    const double e1 = 1024.0 / reg.SizeOf(r.type);
    std::printf("%-8s %14.1f %14.2f %12.1f %12.2f\n", r.name, per * e8,
                per * e1, r.paper8, r.paper1);
    report.Add(std::string(r.name) + ".8KB_ms", per * e8);
    report.Add(std::string(r.name) + ".1KB_ms", per * e1);
  }
  arch::TypeId rec = reg.RegisterRecord(
      "paper_record", {{Reg::kInt, 3}, {Reg::kFloat, 3}, {Reg::kShort, 4}});
  const double rec_ms =
      ToMillis(reg.ModeledElementCost(sun, rec)) * (8192.0 / reg.SizeOf(rec));
  std::printf("%-8s %14.1f %14s %12.1f %12s   (on Sun3/60)\n", "record",
              rec_ms, "-", 19.6, "-");
  report.Add("record.8KB_sun_ms", rec_ms);
}

}  // namespace
}  // namespace mermaid

int main(int argc, char** argv) {
  mermaid::benchutil::JsonReport report("table3_conversion");
  mermaid::PrintModeledTable(report);
  std::printf("\nReal conversion-routine timings on this machine:\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report.Write();
  return 0;
}
