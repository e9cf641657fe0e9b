// Self-test of the benchmark's checkers and statistics helpers: each
// checker is fed clean data and then data with a planted violation, which
// it must catch. Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentileRule() {
  std::vector<int> ten = {7, 1, 9, 3, 5, 2, 10, 4, 8, 6};
  Expect(Quantile(ten, 0.5) == 5, "nearest-rank median of 1..10 is 5");
  Expect(Quantile(std::vector<int>{}, 0.5) == std::nullopt,
         "no median of an empty sample");
  Expect(Quantile(std::vector<int>{42}, 0.5) == 42,
         "the median of one sample is that sample");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "even-count median averages");
  Expect(Near(Median({3, 1, 2}), 2), "odd-count median is the middle");

  std::vector<std::int64_t> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(TailQuantile(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  thousand.pop_back();
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(TailQuantile(thousand, 0.99) == std::nullopt,
         "p99 is withheld with fewer than ten samples beyond it");
  Expect(TailQuantile(ten, 0.5) == std::nullopt,
         "10 samples: only 5 beyond the median, no tail");
}

void TestGini() {
  Expect(Near(Gini({1, 1, 1, 1}), 0), "even load has Gini 0");
  Expect(Near(Gini({0, 0, 0, 1}), 0.75), "all load on 1 of 4 is 0.75");
  Expect(Near(Gini({4, 1, 3, 2}), 0.25), "Gini of 1..4 is 0.25");
  Expect(Near(Gini({2, 0, 2, 0}), 0.5), "Gini of {0,0,2,2} is 0.5");
  Expect(Near(Gini({}), 0), "empty vector has Gini 0");
  Expect(Near(Gini({0, 0}), 0), "all-zero load has Gini 0");
}

void TestMatrixCheck() {
  const int n = 3;
  std::vector<double> want = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  CheckLog clean;
  CheckMatrix(clean, want, want, n);
  Expect(clean.failed == 0 && clean.attempted == n + 1,
         "matching matrices pass, one check per row plus the size");

  std::vector<double> got = want;
  got[5] += 1;  // planted: row 1, column 2
  CheckLog planted;
  CheckMatrix(planted, got, want, n);
  Expect(planted.failed == 1, "one wrong element fails exactly one row");
  Expect(!planted.failures.empty() &&
             planted.failures[0].find("(1, 2)") != std::string::npos,
         "the failure names the wrong element");

  CheckLog short_log;
  got.pop_back();
  CheckMatrix(short_log, got, want, n);
  Expect(short_log.failed == 1, "a truncated result fails");
}

void TestStampCheck() {
  const std::vector<StampRead> clean = {
      {5, 1, 0},            {9, 1, Stamp(1, 9)}, {5, 2, Stamp(1, 5)},
      {9, 2, Stamp(2, 9)},  {5, 3, Stamp(3, 5)}, {9, 3, Stamp(2, 9)},
  };
  CheckLog ok;
  CheckStampReads(ok, 1, clean);
  Expect(ok.failed == 0 && ok.attempted == 6, "clean stamps pass");

  auto planted = [](std::vector<StampRead> reads, std::size_t i,
                    std::int32_t value) {
    reads[i].value = value;
    CheckLog log;
    CheckStampReads(log, 1, reads);
    return log.failed;
  };
  Expect(planted(clean, 5, Stamp(1, 9)) >= 1,
         "a stamp that goes backwards is caught");
  Expect(planted(clean, 3, Stamp(2, 5)) >= 1,
         "a stamp of another page is caught");
  Expect(planted(clean, 4, Stamp(1, 5)) >= 1,
         "a stamp older than the previous round is caught");
  Expect(planted(clean, 0, Stamp(2, 5)) >= 1,
         "a stamp from a future round is caught");
}

void TestQuiescenceCheck() {
  mermaid::dsm::System::QuiescenceReport q;
  CheckLog ok;
  CheckQuiescence(ok, q);
  Expect(ok.failed == 0, "a quiescent system passes");
  q.busy_entries = 1;
  CheckLog busy;
  CheckQuiescence(busy, q);
  Expect(busy.failed == 1, "a busy manager entry is caught");
  q.busy_entries = 0;
  q.pending_transfers = 2;
  CheckLog pending;
  CheckQuiescence(pending, q);
  Expect(pending.failed == 1, "a pending transfer is caught");
}

void TestDigest() {
  RunResult r;
  r.modeled_ns = 1000;
  r.fault_ns = {5, 6, 7};
  const Digest d = MakeDigest(r);
  RunResult moved = r;
  moved.modeled_ns += 1;
  Expect(MakeDigest(moved) != d, "a modeled-time change moves the digest");
  moved = r;
  moved.fault_ns.back() = 9;
  moved.fault_ns.front() = 9;
  Expect(MakeDigest(moved) != d, "a fault-latency change moves the digest");
  moved = r;
  moved.wall_s = 99;
  Expect(MakeDigest(moved) == d, "host time is not part of the digest");
}

void TestInputs() {
  for (Workload w : kAllWorkloads) {
    const Inputs a = MakeInputs(w, 11);
    const Inputs b = MakeInputs(w, 11);
    const Inputs c = MakeInputs(w, 12);
    const bool same = a.a_f64 == b.a_f64 && a.a_i32 == b.a_i32 &&
                      a.read_sets == b.read_sets && a.net_seed == b.net_seed;
    const bool differs = a.a_f64 != c.a_f64 || a.a_i32 != c.a_i32 ||
                         a.read_sets != c.read_sets;
    Expect(same, std::string(WorkloadName(w)) + ": a seed gives one input");
    Expect(differs && a.net_seed != c.net_seed,
           std::string(WorkloadName(w)) + ": another seed, other inputs");
  }
  const Inputs m = MakeInputs(Workload::kMm1Hetero, 3);
  const int n = m.n;
  double dot = 0;  // element (1, 2) by hand
  for (int k = 0; k < n; ++k) {
    dot += m.a_f64[static_cast<std::size_t>(n) + k] *
           m.b_f64[static_cast<std::size_t>(k) * n + 2];
  }
  Expect(m.want_f64[static_cast<std::size_t>(n) + 2] == dot,
         "the plain-memory product is A x B");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileRule();
  TestGini();
  TestMatrixCheck();
  TestStampCheck();
  TestQuiescenceCheck();
  TestDigest();
  TestInputs();
  if (g_failures != 0) {
    std::printf("perfbench selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
