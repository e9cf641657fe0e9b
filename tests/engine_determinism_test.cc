// System-level determinism regression for the engine.
//
// Runs the full DSM stack (faults, retransmits under loss, crash-stop
// recovery, sync server) and requires the *entire* merged stats registry —
// every counter, every distribution, every histogram, serialized — to hash
// to the value the thread-per-process reference scheduler produced before
// it was deleted, along with the same final virtual time. This is the
// strongest cheap oracle we have: any divergence in event order anywhere in
// the stack perturbs retransmit counts, RTT samples, or fault hops and
// shows up here.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "fixture_hash.h"
#include "mermaid/arch/arch.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

using Reg = arch::TypeRegistry;

SystemConfig ChaosConfig(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.region_bytes = 128 * 1024;
  cfg.page_bytes_override = 1024;
  cfg.referee_check_access = true;
  cfg.crash_recovery = true;
  cfg.lost_page_policy = SystemConfig::LostPagePolicy::kReinitZero;
  cfg.group_fetch = true;
  cfg.coalesced_invalidation = true;
  cfg.net.seed = seed;
  cfg.net.loss_probability = 0.25;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 60;
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  return cfg;
}

struct Fingerprint {
  std::string stats;
  SimTime end = 0;
};

// Writer/reader churn across all hosts with a mid-run crash+recovery: the
// workload leans on every timer the wheel hosts (retransmit deadlines,
// janitor sweeps, recovery delays) and on cross-host invalidation traffic.
Fingerprint RunChaos(std::uint64_t seed) {
  sim::Engine eng;
  System sys(eng, ChaosConfig(seed),
             {&arch::Sun3Profile(), &arch::FireflyProfile(),
              &arch::FireflyProfile()});
  sys.Start();
  constexpr int kCells = 8;
  sys.SpawnThread(0, "master", [&](Host& h) {
    const GlobalAddr arena = sys.Alloc(0, Reg::kLong, kCells * 128);
    for (int c = 0; c < kCells; ++c) {
      h.Write<std::int64_t>(arena + 1024ull * c, 0);
    }
    sys.sync(0).SemInit(1, 0);
    for (int w = 1; w <= 2; ++w) {
      sys.SpawnThread(static_cast<net::HostId>(w), "w" + std::to_string(w),
                      [&, arena, w](Host& hh) {
                        for (int round = 0; round < 30; ++round) {
                          const int c = (round * 3 + w) % kCells;
                          const GlobalAddr a = arena + 1024ull * c;
                          const auto v = hh.Read<std::int64_t>(a);
                          hh.Write<std::int64_t>(a, v + 1);
                          hh.Compute(50.0 * ((round + w) % 7));
                        }
                        sys.sync(static_cast<net::HostId>(w)).V(1);
                      });
    }
    h.runtime().Delay(Milliseconds(40));
    sys.CrashAndRestartHost(2, Milliseconds(60));
    sys.sync(0).P(1);
    sys.sync(0).P(1);
    h.runtime().Delay(Seconds(2));  // let retries, probes, janitor settle
  });
  Fingerprint fp;
  fp.end = eng.Run();
  fp.stats = sys.GatherStats().ToString();
  return fp;
}

// Recorded from the reference scheduler at seed 31 (see the file comment).
constexpr SimTime kChaosEnd = 37589640093;
constexpr std::uint64_t kChaosStatsHash = 12342791748801090645ull;

TEST(EngineDeterminism, ChaosMatchesFrozenLegacyStats) {
  const Fingerprint got = RunChaos(31);
  ASSERT_FALSE(got.stats.empty());
  EXPECT_EQ(got.end, kChaosEnd);
  EXPECT_EQ(fixture::Fnv1a64(got.stats), kChaosStatsHash) << got.stats;
}

TEST(EngineDeterminism, OptimizedEngineIsRunToRunDeterministic) {
  const Fingerprint a = RunChaos(77);
  const Fingerprint b = RunChaos(77);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.stats, b.stats);
}

}  // namespace
}  // namespace mermaid::dsm
