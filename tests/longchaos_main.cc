// Long-horizon chaos soak for the nightly CI job.
//
// Runs a multi-host random read/write workload under sustained 30% packet
// loss while a controller process periodically crash-restarts a random
// non-service host (crash-with-amnesia + manager-state reconstruction).
// The coherence referee checks every access throughout; a violation aborts
// the process, which is the failure signal the nightly matrix reports
// together with the seed. A Chrome-format protocol trace is rewritten to
// trace.json after every crash cycle, so the artifact of a failing run
// shows the window that led up to the abort.
//
// Not a ctest: duration and seeds are driven by the workflow.
//
//   usage: mermaid_longchaos [seed] [sim-seconds]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/base/rng.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"
#include "mermaid/trace/export.h"

namespace mermaid {
namespace {

constexpr int kHosts = 4;
constexpr int kCells = 16;  // one 1 KB page per cell -> every host manages some

dsm::SystemConfig SoakConfig(std::uint64_t seed) {
  dsm::SystemConfig cfg;
  cfg.region_bytes = 256 * 1024;
  cfg.page_bytes_override = 1024;
  cfg.referee_check_access = true;
  cfg.crash_recovery = true;
  // Sole-owner copies legitimately die in this workload; reinit-to-zero
  // keeps the soak running and counts the losses instead of aborting.
  cfg.lost_page_policy = dsm::SystemConfig::LostPagePolicy::kReinitZero;
  // probable_owner stays OFF: a hint-served reader invisible to the manager
  // can survive a reinit and trip the referee (documented in DESIGN.md,
  // "Failure model").
  cfg.group_fetch = true;
  cfg.coalesced_invalidation = true;
  cfg.net.seed = seed;
  cfg.net.loss_probability = 0.30;
  cfg.call_timeout = Milliseconds(150);
  cfg.call_max_attempts = 60;  // rides out downtime + 30% loss
  cfg.janitor_period = Milliseconds(100);
  cfg.confirm_probe_after = Milliseconds(300);
  cfg.trace = true;
  return cfg;
}

void DumpTrace(dsm::System& sys) {
  if (!sys.tracer().enabled()) return;
  if (!trace::WriteChromeTrace(sys.tracer().Snapshot(), "trace.json")) {
    std::fprintf(stderr, "cannot write trace.json\n");
  }
}

// A referee/protocol abort fires between the per-cycle dumps; snapshot the
// trace from the SIGABRT handler so the uploaded artifact covers the events
// that led to the check failure, not just the last completed cycle.
dsm::System* g_sys = nullptr;
void DumpTraceOnAbort(int) {
  std::signal(SIGABRT, SIG_DFL);  // a second abort must not recurse
  if (g_sys != nullptr) DumpTrace(*g_sys);
}

}  // namespace

int Run(std::uint64_t seed, double sim_seconds) {
  sim::Engine eng;
  dsm::System sys(eng, SoakConfig(seed),
                  {&arch::Sun3Profile(), &arch::FireflyProfile(),
                   &arch::FireflyProfile(), &arch::Sun3Profile()});
  g_sys = &sys;
  std::signal(SIGABRT, DumpTraceOnAbort);
  sys.Start();

  std::atomic<bool> stop{false};
  std::atomic<int> crashes{0};
  std::atomic<bool> converged{true};

  sys.SpawnThread(0, "master", [&](dsm::Host& h) {
    const dsm::GlobalAddr arena =
        sys.Alloc(0, arch::TypeRegistry::kLong, kCells * 128);
    for (int c = 0; c < kCells; ++c) {
      h.Write<std::int64_t>(arena + 1024ull * c, 0);
    }
    sys.sync(0).SemInit(1, 0);  // workers done
    sys.sync(0).SemInit(2, 0);  // checkers done

    for (int i = 0; i < kHosts; ++i) {
      sys.SpawnThread(i, "worker" + std::to_string(i),
                      [&, i, arena](dsm::Host& hh) {
        base::Rng rng(seed * 977 + i);
        while (!stop.load()) {
          const dsm::GlobalAddr addr = arena + 1024ull * rng.NextBelow(kCells);
          if (rng.NextBool(0.4)) {
            hh.Write<std::int64_t>(addr, static_cast<std::int64_t>(
                                             rng.NextBelow(1 << 20)));
          } else {
            (void)hh.Read<std::int64_t>(addr);
          }
          hh.Compute(static_cast<double>(rng.NextBelow(400)));
        }
        sys.sync(i).V(1);
      });
    }

    // Crash controller: one strike per cycle, with enough slack after the
    // restart for the rebuild to finish before the next victim is picked.
    {
      base::Rng rng(seed * 31 + 7);
      const SimTime deadline =
          h.runtime().Now() +
          static_cast<SimDuration>(sim_seconds * 1e9);
      while (h.runtime().Now() < deadline) {
        h.runtime().Delay(Seconds(1) +
                          static_cast<SimDuration>(
                              rng.NextBelow(2'000'000'000ull)));
        if (h.runtime().Now() >= deadline) break;
        const auto victim =
            static_cast<net::HostId>(1 + rng.NextBelow(kHosts - 1));
        const SimDuration down =
            Milliseconds(300) +
            static_cast<SimDuration>(rng.NextBelow(1'200'000'000ull));
        sys.CrashAndRestartHost(victim, down);
        crashes.fetch_add(1);
        h.runtime().Delay(down + Seconds(3));  // restart + rebuild margin
        DumpTrace(sys);
      }
    }
    stop = true;
    for (int i = 0; i < kHosts; ++i) sys.sync(0).P(1);
    h.runtime().Delay(Seconds(5));  // heal margin before the final audit

    // Convergence audit: every host must agree on every cell.
    auto finals = std::make_shared<std::vector<std::int64_t>>(kCells);
    for (int c = 0; c < kCells; ++c) {
      (*finals)[c] = h.Read<std::int64_t>(arena + 1024ull * c);
    }
    for (int i = 1; i < kHosts; ++i) {
      sys.SpawnThread(i, "check" + std::to_string(i), [&, i, arena, finals](
                                                          dsm::Host& hh) {
        for (int c = 0; c < kCells; ++c) {
          if (hh.Read<std::int64_t>(arena + 1024ull * c) != (*finals)[c]) {
            converged = false;
            std::fprintf(stderr, "divergence: host %d cell %d\n", i, c);
          }
        }
        sys.sync(i).V(2);
      });
    }
    for (int i = 1; i < kHosts; ++i) sys.sync(0).P(2);
    h.runtime().Delay(Seconds(10));  // confirm/probe drain before quiescence
  });
  eng.Run();

  DumpTrace(sys);
  auto& st = sys.GatherStats();
  const auto q = sys.CheckQuiescent();
  std::printf(
      "longchaos seed=%llu sim=%.0fs: %d crashes, %lld pages lost, "
      "%lld owner-lost reports, %lld fenced calls, %lld broken locks, "
      "%lld dropped packets\n",
      static_cast<unsigned long long>(seed), sim_seconds, crashes.load(),
      static_cast<long long>(st.Count("dsm.recovery_pages_lost")),
      static_cast<long long>(st.Count("dsm.owner_lost_reports")),
      static_cast<long long>(st.Count("reqrep.fenced_zombie_calls")),
      static_cast<long long>(st.Count("sync.broken_locks")),
      static_cast<long long>(st.Count("net.packets_dropped")));
  std::fputs(sys.ReportStats().c_str(), stdout);

  int rc = 0;
  if (!converged.load()) {
    std::fprintf(stderr, "FAIL: hosts diverged after the soak\n");
    rc = 1;
  }
  if (q.busy_entries != 0 || q.pending_transfers != 0) {
    std::fprintf(stderr,
                 "FAIL: not quiescent (%llu busy, %llu pending)\n",
                 static_cast<unsigned long long>(q.busy_entries),
                 static_cast<unsigned long long>(q.pending_transfers));
    rc = 1;
  }
  if (crashes.load() == 0) {
    std::fprintf(stderr, "FAIL: soak ran without a single crash cycle\n");
    rc = 1;
  }
  return rc;
}

}  // namespace mermaid

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double sim_seconds = 120;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) sim_seconds = std::strtod(argv[2], nullptr);
  return mermaid::Run(seed, sim_seconds);
}
