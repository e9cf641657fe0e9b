// The benchmark's three workloads, run through the public dsm::System /
// dsm::Host / sync::Client API on a plain sim::Engine.
//
//   mm1-hetero  MM1 (block rows), 512 x 512 double; master on a Sun, 8
//               worker threads on 4 Fireflies; read-shared, every transfer
//               to a Firefly converts IEEE -> VAX D.
//   mm2-thrash  MM2 (round-robin rows, element writes), 256 x 256 int;
//               master on a Sun, 8 threads on 3 Fireflies; 8 KB pages
//               write-shared by all threads ping-pong (paper §3.3).
//   fleet-dir   64 hosts, 128-byte pages, dynamic directory with hot-page
//               migration; each worker stamps its own pages and reads a
//               zipf-skewed set of others' pages every round.
//
// One RunOnce builds a fresh engine and system, runs the workload to its
// end, and checks its outputs. Inputs come from the seed alone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace perfbench {

enum class Workload : std::uint8_t { kMm1Hetero, kMm2Thrash, kFleetDir };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kMm1Hetero, Workload::kMm2Thrash, Workload::kFleetDir};

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

// Everything a workload consumes, generated from the seed outside every
// timed phase, plus the plain-memory product the matrix workloads are
// checked against.
struct Inputs {
  Workload workload = Workload::kMm1Hetero;
  std::uint64_t net_seed = 0;  // the network's jitter stream
  int n = 0;                   // matrix dimension
  std::vector<double> a_f64, b_f64, want_f64;
  std::vector<std::int32_t> a_i32, b_i32, want_i32;
  // fleet-dir, indexed by worker - 1: the hot pages read in each round
  // (kFleetReads per round, round after round), and the modeled compute
  // (work units) before each round's reads.
  std::vector<std::vector<int>> read_sets;
  std::vector<std::vector<int>> compute_units;
};
Inputs MakeInputs(Workload w, std::uint64_t seed);

struct RunOptions {
  bool fast_engine = false;  // sim::EngineOptions::AllOn() instead of {}
  bool traced = false;       // record spans and turn the protocol tracer on
  SpanLog* spans = nullptr;  // required when traced
};

struct RunResult {
  // Host clocks, seconds. Set-up runs from engine construction to the
  // start of the timed phase (system construction + Start, then alloc and
  // fill inside the simulation); the timed phase runs to the end of
  // Engine::Run.
  double setup_s = 0;
  double setup_system_s = 0;  // System construction + Start
  double setup_init_s = 0;    // alloc + fill
  double wall_s = 0;
  double cpu_s = 0;  // user + sys of the whole process

  // Modeled quantities.
  std::int64_t modeled_ns = 0;         // the application's timed phase
  std::vector<std::int64_t> fault_ns;  // access calls of the timed phase
                                       // that blocked
  std::vector<std::int64_t> sync_ns;   // every sync call
  std::map<std::string, std::int64_t> counters;
  double hops_sum = 0;  // dsm.vm_fault_hops
  std::int64_t hops_count = 0;
  std::uint64_t switches = 0;
  std::uint64_t os_handoffs = 0;
  std::vector<double> manager_grants;  // per host
  std::uint64_t bulk_copies = 0;

  std::int64_t access_ops = 0;
  std::int64_t sync_ops = 0;
  CheckLog checks;

  std::int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

RunResult RunOnce(const Inputs& in, const RunOptions& opt);

// The workload's directory configuration: its SystemConfig, host count and
// DSM page count, for timing dsm::Directory directly.
struct DirectoryShape {
  mermaid::dsm::SystemConfig cfg;
  std::uint16_t hosts = 0;
  std::uint32_t pages = 0;
};
DirectoryShape DirectoryShapeOf(const Inputs& in);

// Every modeled quantity of a run, as (name, value) in a fixed order. It is
// a function of the program and the seed only: identical under every
// EngineOptions and with tracing on or off.
using Digest = std::vector<std::pair<std::string, std::string>>;
Digest MakeDigest(const RunResult& r);

}  // namespace perfbench
