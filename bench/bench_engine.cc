// Engine throughput benchmark: a 256-host request/reply fleet under packet
// chaos, driven by the fiber engine (per-host sub-queues, timer wheel,
// slabs, fiber handoff; DESIGN.md §11).
//
// The metric is scheduler throughput — simulated events (context switches)
// per wall-clock second — because the workload is pure scheduling: ~770
// processes (an rx daemon and a fragment sweeper per endpoint, one client
// per host, the chaos daemon), dense RecvUntil deadline churn from call
// timeouts and retransmissions, and high channel traffic. The run doubles
// as a determinism check. It runs twice and both runs must agree on the
// final virtual time, the per-call outcome hash and the switch count; at
// the default call count those must also equal the values the
// thread-per-process reference scheduler produced (frozen below).
//
//   usage: bench_engine [calls-per-client]
//
// Exits non-zero on any divergence, so CI can gate on it; events/s goes to
// BENCH_engine.json for comparison against a committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/base/time.h"
#include "mermaid/net/network.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/engine.h"

#include "bench_util.h"

namespace mermaid {
namespace {

constexpr int kHosts = 256;
constexpr std::uint8_t kOpEcho = 1;
constexpr int kDefaultCalls = 24;

// The reference scheduler's answers at kDefaultCalls, recorded before it
// was deleted.
constexpr SimTime kFrozenEnd = 8828529965;
constexpr std::uint64_t kFrozenEvents = 78203;
constexpr std::uint64_t kFrozenOutcomeHash = 0x3b644778908e935bull;

struct FleetResult {
  double wall_s = 0;
  SimTime end = 0;
  std::uint64_t events = 0;        // engine context switches
  std::uint64_t fast_resumes = 0;
  std::int64_t ok_calls = 0;
  std::int64_t timeouts = 0;
  std::uint64_t outcome_hash = 0;  // order-sensitive digest of every call
};

// Per-client accumulator; clients only ever touch their own slot and the
// engine runs one process at a time, so no synchronization is needed.
struct ClientTally {
  std::int64_t ok = 0;
  std::int64_t timeouts = 0;
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis

  void Mix(std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  }
};

FleetResult RunFleet(int calls_per_client) {
  sim::Engine eng;

  net::Network::Config net_cfg;
  net_cfg.seed = 2026;
  net_cfg.loss_probability = 0.05;
  net::Network net(eng, net_cfg);

  // Chaos on top of the base loss: duplicates and reordering stress the
  // dedup window, and a brief partition around a dozen hosts forces real
  // retransmission backoff (timer wheel arm/cancel churn) before healing
  // well inside the call budget.
  net::FaultPlan plan;
  plan.duplicate_probability = 0.02;
  plan.reorder_probability = 0.05;
  plan.reorder_delay_max = Microseconds(500);
  net::FaultPlan::Partition part;
  for (net::HostId h = 0; h < 12; ++h) part.group.push_back(h * 20 + 3);
  part.from = Milliseconds(5);
  part.until = Milliseconds(60);
  plan.partitions.push_back(part);
  net.SetFaultPlan(std::move(plan));

  std::vector<std::unique_ptr<net::Endpoint>> eps;
  eps.reserve(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    auto ep = std::make_unique<net::Endpoint>(
        eng, net, static_cast<net::HostId>(h), &benchutil::Ffly());
    ep->SetHandler(kOpEcho, [&eng](net::RequestContext ctx) {
      eng.Delay(Microseconds(20));  // modeled service time
      std::vector<std::uint8_t> reply(ctx.body().begin(), ctx.body().end());
      ctx.Reply(net::Body{std::move(reply)});
    });
    ep->Start();
    eps.push_back(std::move(ep));
  }

  auto tallies = std::make_unique<ClientTally[]>(kHosts);
  for (int h = 0; h < kHosts; ++h) {
    eng.SpawnOn(
        static_cast<std::uint32_t>(h), "client-" + std::to_string(h),
        [&eng, &eps, &tallies, h, calls_per_client] {
          ClientTally& t = tallies[h];
          for (int k = 0; k < calls_per_client; ++k) {
            // Deterministic pseudo-random peer, never self.
            const std::uint32_t mix =
                (static_cast<std::uint32_t>(h) * 2654435761u) ^
                (static_cast<std::uint32_t>(k) * 40503u + 0x9e37u);
            int peer = static_cast<int>(mix % (kHosts - 1));
            if (peer >= h) ++peer;
            std::vector<std::uint8_t> body(12);
            for (int b = 0; b < 12; ++b) {
              body[static_cast<std::size_t>(b)] =
                  static_cast<std::uint8_t>(h + k * 7 + b);
            }
            const auto res = eps[static_cast<std::size_t>(h)]->CallWithStatus(
                static_cast<net::HostId>(peer), kOpEcho,
                net::Body{std::move(body)});
            if (res.status == net::CallStatus::kShutdown) return;
            if (res.ok()) {
              ++t.ok;
              t.Mix(0xA11CE5ull);
              for (std::uint8_t byte : res.body.ToVector()) t.Mix(byte);
            } else {
              ++t.timeouts;
              t.Mix(0xDEADull);
            }
            t.Mix(static_cast<std::uint64_t>(eng.Now()));
            // Local compute between calls, as DSM workers interleave with
            // communication: short waits whose cost is pure scheduling.
            for (int d = 0; d < 8; ++d) {
              eng.Delay(Microseconds(3 + static_cast<int>(mix % 7) + d));
            }
          }
        });
  }

  const auto t0 = std::chrono::steady_clock::now();
  const SimTime end = eng.Run();
  const auto t1 = std::chrono::steady_clock::now();

  FleetResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.end = end;
  r.events = eng.switch_count();
  r.fast_resumes = eng.fast_resume_count();
  r.outcome_hash = 1469598103934665603ull;
  for (int h = 0; h < kHosts; ++h) {
    r.ok_calls += tallies[h].ok;
    r.timeouts += tallies[h].timeouts;
    r.outcome_hash ^= tallies[h].hash + 0x9e3779b97f4a7c15ull +
                      (r.outcome_hash << 6) + (r.outcome_hash >> 2);
  }
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  int calls = kDefaultCalls;
  if (argc > 1) calls = std::atoi(argv[1]);
  if (calls <= 0) calls = kDefaultCalls;

  benchutil::JsonReport report("engine");
  benchutil::PrintHeader("Engine throughput: 256-host req/rep fleet under "
                         "loss, duplication, reordering, and a partition");
  std::printf("%d hosts x %d calls each\n\n", kHosts, calls);

  // Two runs: the min wall time damps scheduler noise on shared runners,
  // and the pair doubles as a run-to-run determinism check.
  FleetResult run = RunFleet(calls);
  const FleetResult rerun = RunFleet(calls);
  bool ok = true;
  if (run.outcome_hash != rerun.outcome_hash || run.end != rerun.end ||
      run.events != rerun.events) {
    std::fprintf(stderr, "FAIL: the rerun diverged from the first run\n");
    ok = false;
  }
  run.wall_s = std::min(run.wall_s, rerun.wall_s);
  const double eps =
      static_cast<double>(run.events) / (run.wall_s > 0 ? run.wall_s : 1e-9);

  std::printf("%-28s %14.3f\n", "wall clock (s)", run.wall_s);
  std::printf("%-28s %14llu\n", "events (switches)",
              static_cast<unsigned long long>(run.events));
  std::printf("%-28s %14.0f\n", "events/sec", eps);
  std::printf("%-28s %14llu\n", "fast resumes",
              static_cast<unsigned long long>(run.fast_resumes));
  std::printf("%-28s %14lld\n", "ok calls",
              static_cast<long long>(run.ok_calls));
  std::printf("%-28s %14lld\n", "timeouts",
              static_cast<long long>(run.timeouts));
  std::printf("%-28s %14lld\n", "final virtual time (ns)",
              static_cast<long long>(run.end));

  const bool frozen = calls == kDefaultCalls;
  if (frozen && (run.end != kFrozenEnd || run.events != kFrozenEvents ||
                 run.outcome_hash != kFrozenOutcomeHash)) {
    std::fprintf(stderr,
                 "FAIL: diverged from the frozen reference schedule (end "
                 "%lld vs %lld, events %llu vs %llu, hash %llx vs %llx)\n",
                 static_cast<long long>(run.end),
                 static_cast<long long>(kFrozenEnd),
                 static_cast<unsigned long long>(run.events),
                 static_cast<unsigned long long>(kFrozenEvents),
                 static_cast<unsigned long long>(run.outcome_hash),
                 static_cast<unsigned long long>(kFrozenOutcomeHash));
    ok = false;
  }
  std::printf("\nfrozen reference schedule: %s\n",
              !frozen ? "not checked (non-default call count)"
                      : (ok ? "matched" : "DIVERGED"));

  report.Add("hosts", kHosts);
  report.Add("calls_per_client", calls);
  report.Add("events", static_cast<std::int64_t>(run.events));
  report.Add("end_ns", static_cast<std::int64_t>(run.end));
  report.Add("wall_s", run.wall_s);
  report.Add("events_per_s", eps);
  report.Add("fast_resumes", static_cast<std::int64_t>(run.fast_resumes));
  report.Add("ok_calls", run.ok_calls);
  report.Add("timeouts", run.timeouts);
  report.Add("deterministic", ok ? 1 : 0);
  report.Write();

  return ok ? 0 : 1;
}

}  // namespace mermaid

int main(int argc, char** argv) { return mermaid::Main(argc, argv); }
