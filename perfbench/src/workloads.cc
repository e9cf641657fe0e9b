#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <type_traits>

#include "mermaid/arch/arch.h"
#include "mermaid/base/buffer.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"
#include "stats.h"

namespace perfbench {

using namespace mermaid;

namespace {

// Each run must give the fault tail something to stand on: p99 needs at
// least ten samples beyond it.
constexpr std::size_t kMinFaultSamples = 1000;

constexpr sync::SyncId kDoneSem = 1;
constexpr sync::SyncId kRoundBarrier = 2;

// Modeled time the master waits after the application finishes, so
// confirms and the janitor drain before the quiescence check.
constexpr SimDuration kDrain = Seconds(5);

struct MatSpec {
  int n;
  int threads;
  int fireflies;
  bool round_robin_rows;  // MM2; MM1 deals contiguous blocks
  bool element_writes;    // write each result element as it is computed
  // All threads start each row together (a barrier after every row), so
  // the 8 rows of one page are written at once: every page thrashes.
  bool lockstep_rows;
  double jitter;
};
constexpr MatSpec kMm1{512, 8, 4, false, false, false, 0.05};
constexpr MatSpec kMm2{256, 8, 3, true, true, true, 0.1};

constexpr int kFleetHosts = 64;
constexpr int kFleetWorkers = kFleetHosts - 1;
constexpr int kFleetRounds = 12;
constexpr int kFleetReads = 4;        // pages each worker reads per round
constexpr int kFleetHotPages = 512;   // single-writer pages
constexpr int kFleetPageSpread = 8;   // hot page j is DSM page 8j
constexpr std::uint32_t kFleetPageBytes = 128;
constexpr int kFleetRegionPages = kFleetHotPages * kFleetPageSpread;
constexpr double kFleetJitter = 0.05;

// Firefly cost model on a 128-byte VM page, so a 64-host fleet keeps every
// DSM page on one VM page with a small region.
const arch::ArchProfile& FleetProfile() {
  static const arch::ArchProfile kProfile = [] {
    arch::ArchProfile p = arch::FireflyProfile();
    p.name = "FFLY128";
    p.vm_page_size = kFleetPageBytes;
    return p;
  }();
  return kProfile;
}

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// What one workload thread did; merged into the RunResult after the run.
struct ThreadLog {
  std::vector<std::int64_t> fault_ns;
  std::vector<std::int64_t> sync_ns;
  std::int64_t access_ops = 0;
  std::int64_t sync_ops = 0;
};

// Times the calls a workload thread makes into the dsm and sync layers:
// modeled latency always, host time and a span when the run is traced.
class Probe {
 public:
  Probe(dsm::Host& h, ThreadLog& log, SpanLog* spans, std::uint32_t span)
      : h_(h), log_(log), spans_(spans), span_(span) {}

  // Blocking access calls are fault samples only inside the timed phase.
  void set_sampling(bool on) { sampling_ = on; }

  template <typename Fn>
  void Access(const char* name, std::uint64_t elems, Fn&& fn) {
    ++log_.access_ops;
    const std::int64_t s0 = h_.runtime().Now();
    const std::int64_t h0 = spans_ != nullptr ? spans_->HostNow() : 0;
    fn();
    const std::int64_t s1 = h_.runtime().Now();
    if (sampling_ && s1 > s0) log_.fault_ns.push_back(s1 - s0);
    Record(name, elems, h0, s0, s1);
  }

  template <typename Fn>
  void Sync(const char* name, Fn&& fn) {
    ++log_.sync_ops;
    const std::int64_t s0 = h_.runtime().Now();
    const std::int64_t h0 = spans_ != nullptr ? spans_->HostNow() : 0;
    fn();
    const std::int64_t s1 = h_.runtime().Now();
    log_.sync_ns.push_back(s1 - s0);
    Record(name, 0, h0, s0, s1);
  }

 private:
  void Record(const char* name, std::uint64_t elems, std::int64_t h0,
              std::int64_t s0, std::int64_t s1) {
    if (spans_ == nullptr) return;
    spans_->Add(Span{name, span_, elems, h0, spans_->HostNow(), s0, s1});
  }

  dsm::Host& h_;
  ThreadLog& log_;
  SpanLog* spans_;
  std::uint32_t span_;
  bool sampling_ = true;
};

// State of one run, shared by the master and worker threads. Only one
// simulated process runs at a time, and each thread writes only its own
// ThreadLog and result slots.
struct Ctx {
  const Inputs& in;
  SpanLog* spans = nullptr;  // non-null when traced
  dsm::System* sys = nullptr;
  std::uint32_t run_span = 0;
  std::vector<ThreadLog> logs;  // [0] master, [1 + t] worker t

  double t_begin = 0;  // host clock at engine construction
  double t_system_done = 0;
  double t_init_begin = 0;  // master's first instruction
  double t_timed = 0;       // start of the timed phase
  double cpu_timed = 0;
  SimTime sim_begin = 0;
  SimTime sim_end = 0;
  bool master_done = false;

  dsm::GlobalAddr a = 0, b = 0, c = 0;
  std::vector<double> got_f64;
  std::vector<std::int32_t> got_i32;
  std::vector<std::vector<StampRead>> stamp_reads;  // per worker
  std::vector<std::int32_t> final_stamps;

  Ctx(const Inputs& in_, SpanLog* spans_) : in(in_), spans(spans_) {}

  std::uint32_t OpenThreadSpan(const char* name, dsm::Host& h) {
    return spans == nullptr ? 0
                            : spans->Open(name, run_span, h.runtime().Now());
  }
  void CloseThreadSpan(std::uint32_t id, dsm::Host& h) {
    if (spans != nullptr) spans->Close(id, h.runtime().Now());
  }
  void BeginTimedPhase(dsm::Host& h, Probe& p) {
    t_timed = HostSeconds();
    cpu_timed = CpuSeconds();
    sim_begin = h.runtime().Now();
    p.set_sampling(true);
  }
  // Alloc through the system, with a span around it when traced.
  dsm::GlobalAddr Alloc(dsm::Host& h, std::uint32_t parent, arch::TypeId t,
                        std::uint64_t count) {
    const std::int64_t s0 = h.runtime().Now();
    const std::int64_t h0 = spans != nullptr ? spans->HostNow() : 0;
    const dsm::GlobalAddr addr = sys->Alloc(h.id(), t, count);
    if (spans != nullptr) {
      spans->Add(Span{"dsm.System::Alloc", parent, 0, h0, spans->HostNow(),
                      s0, h.runtime().Now()});
    }
    return addr;
  }
};

template <typename T>
std::vector<T>& Got(Ctx& c) {
  if constexpr (std::is_same_v<T, double>) {
    return c.got_f64;
  } else {
    return c.got_i32;
  }
}

template <typename T>
const std::vector<T>& Operand(const Inputs& in, bool a) {
  if constexpr (std::is_same_v<T, double>) {
    return a ? in.a_f64 : in.b_f64;
  } else {
    return a ? in.a_i32 : in.b_i32;
  }
}

template <typename T>
void MatWorker(Ctx& c, const MatSpec& spec, dsm::Host& h, int tid) {
  const std::uint32_t span = c.OpenThreadSpan("app.worker", h);
  Probe p(h, c.logs[1 + static_cast<std::size_t>(tid)], c.spans, span);
  const int n = spec.n;
  constexpr bool kFloat = std::is_floating_point_v<T>;
  std::vector<int> rows;
  if (spec.round_robin_rows) {
    for (int i = tid; i < n; i += spec.threads) rows.push_back(i);
  } else {
    const int per = (n + spec.threads - 1) / spec.threads;
    for (int i = tid * per; i < std::min(n, (tid + 1) * per); ++i) {
      rows.push_back(i);
    }
  }
  auto row = [n](dsm::GlobalAddr base, int i) {
    return base + sizeof(T) * static_cast<std::uint64_t>(i) * n;
  };
  std::vector<T> arow(n), brow(n), crow(n);
  for (int i : rows) {
    p.Access("dsm.Host::ReadBlock", n,
             [&] { h.ReadBlock<T>(row(c.a, i), n, arow.data()); });
    std::fill(crow.begin(), crow.end(), T{0});
    for (int k = 0; k < n; ++k) {
      p.Access("dsm.Host::ReadBlock", n,
               [&] { h.ReadBlock<T>(row(c.b, k), n, brow.data()); });
      const T aik = arow[k];
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
    if (spec.element_writes) {
      // n multiply-accumulates of modeled work, then the store: the order
      // the paper's MM2 loop produced results in.
      for (int j = 0; j < n; ++j) {
        h.Compute(n, kFloat);
        p.Access("dsm.Host::Write", 1, [&] {
          h.Write<T>(row(c.c, i) + sizeof(T) * static_cast<std::uint64_t>(j),
                     crow[j]);
        });
      }
    } else {
      p.Access("dsm.Host::WriteBlock", n,
               [&] { h.WriteBlock<T>(row(c.c, i), crow.data(), n); });
      h.Compute(static_cast<double>(n) * n, kFloat);
    }
    if (spec.lockstep_rows) {
      p.Sync("sync.Client::Barrier", [&] {
        c.sys->sync(h.id()).Barrier(kRoundBarrier, spec.threads);
      });
    }
  }
  p.Sync("sync.Client::V", [&] { c.sys->sync(h.id()).V(kDoneSem); });
  c.CloseThreadSpan(span, h);
}

template <typename T>
void MatMaster(Ctx& c, const MatSpec& spec, dsm::Host& h) {
  c.t_init_begin = HostSeconds();
  const std::uint32_t span = c.OpenThreadSpan("app.master", h);
  Probe p(h, c.logs[0], c.spans, span);
  p.set_sampling(false);
  const int n = spec.n;
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  constexpr arch::TypeId kType = std::is_same_v<T, double>
                                     ? arch::TypeRegistry::kDouble
                                     : arch::TypeRegistry::kInt;
  c.a = c.Alloc(h, span, kType, nn);
  c.b = c.Alloc(h, span, kType, nn);
  c.c = c.Alloc(h, span, kType, nn);
  // The master's host owns the operands; workers demand-page them over.
  p.Access("dsm.Host::WriteBlock", nn, [&] {
    h.WriteBlock<T>(c.a, Operand<T>(c.in, true).data(), nn);
  });
  p.Access("dsm.Host::WriteBlock", nn, [&] {
    h.WriteBlock<T>(c.b, Operand<T>(c.in, false).data(), nn);
  });
  p.Sync("sync.Client::SemInit",
         [&] { c.sys->sync(h.id()).SemInit(kDoneSem, 0); });

  c.BeginTimedPhase(h, p);
  for (int t = 0; t < spec.threads; ++t) {
    const auto wh = static_cast<net::HostId>(1 + t % spec.fireflies);
    c.sys->SpawnThread(wh, "worker-" + std::to_string(t),
                       [&c, &spec, t](dsm::Host& hh) {
                         MatWorker<T>(c, spec, hh, t);
                       });
  }
  for (int t = 0; t < spec.threads; ++t) {
    p.Sync("sync.Client::P", [&] { c.sys->sync(h.id()).P(kDoneSem); });
  }
  c.sim_end = h.runtime().Now();

  // Read the result back through DSM: its pages migrate to the master.
  std::vector<T>& got = Got<T>(c);
  got.assign(nn, T{0});
  for (int i = 0; i < n; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * n;
    p.Access("dsm.Host::ReadBlock", n, [&] {
      h.ReadBlock<T>(c.c + sizeof(T) * off, n, got.data() + off);
    });
  }
  h.runtime().Delay(kDrain);
  c.master_done = true;
  c.CloseThreadSpan(span, h);
}

dsm::GlobalAddr FleetAddr(const Ctx& c, int j) {
  return c.a + static_cast<dsm::GlobalAddr>(j) * kFleetPageSpread *
                   kFleetPageBytes;
}

// Worker w (1-based, on host w) is the single writer of hot pages
// j = w - 1 (mod kFleetWorkers).
void FleetWorker(Ctx& c, dsm::Host& h, int w) {
  const std::uint32_t span = c.OpenThreadSpan("app.worker", h);
  Probe p(h, c.logs[static_cast<std::size_t>(w)], c.spans, span);
  const auto& reads = c.in.read_sets[static_cast<std::size_t>(w - 1)];
  const auto& units = c.in.compute_units[static_cast<std::size_t>(w - 1)];
  std::size_t next_read = 0;
  auto& seen = c.stamp_reads[static_cast<std::size_t>(w - 1)];
  for (int r = 1; r <= kFleetRounds; ++r) {
    for (int j = w - 1; j < kFleetHotPages; j += kFleetWorkers) {
      p.Access("dsm.Host::Write", 1,
               [&] { h.Write<std::int32_t>(FleetAddr(c, j), Stamp(r, j)); });
    }
    h.Compute(units[static_cast<std::size_t>(r - 1)]);
    for (int k = 0; k < kFleetReads; ++k) {
      const int j = reads[next_read++];
      std::int32_t v = 0;
      p.Access("dsm.Host::Read", 1,
               [&] { v = h.Read<std::int32_t>(FleetAddr(c, j)); });
      seen.push_back(StampRead{j, r, v});
    }
    p.Sync("sync.Client::Barrier", [&] {
      c.sys->sync(h.id()).Barrier(kRoundBarrier, kFleetWorkers);
    });
  }
  p.Sync("sync.Client::V", [&] { c.sys->sync(h.id()).V(kDoneSem); });
  c.CloseThreadSpan(span, h);
}

void FleetMaster(Ctx& c, dsm::Host& h) {
  c.t_init_begin = HostSeconds();
  const std::uint32_t span = c.OpenThreadSpan("app.master", h);
  Probe p(h, c.logs[0], c.spans, span);
  p.set_sampling(false);
  c.a = c.Alloc(h, span, arch::TypeRegistry::kInt,
                std::uint64_t{kFleetRegionPages} * kFleetPageBytes / 4);
  p.Sync("sync.Client::SemInit",
         [&] { c.sys->sync(h.id()).SemInit(kDoneSem, 0); });

  c.BeginTimedPhase(h, p);
  for (int w = 1; w <= kFleetWorkers; ++w) {
    c.sys->SpawnThread(static_cast<net::HostId>(w),
                       "worker-" + std::to_string(w),
                       [&c, w](dsm::Host& hh) { FleetWorker(c, hh, w); });
  }
  for (int w = 1; w <= kFleetWorkers; ++w) {
    p.Sync("sync.Client::P", [&] { c.sys->sync(h.id()).P(kDoneSem); });
  }
  c.sim_end = h.runtime().Now();

  c.final_stamps.assign(kFleetHotPages, 0);
  for (int j = 0; j < kFleetHotPages; ++j) {
    p.Access("dsm.Host::Read", 1, [&] {
      c.final_stamps[static_cast<std::size_t>(j)] =
          h.Read<std::int32_t>(FleetAddr(c, j));
    });
  }
  h.runtime().Delay(kDrain);
  c.master_done = true;
  c.CloseThreadSpan(span, h);
}

constexpr const char* kCounters[] = {
    "dsm.vm_faults",          "dsm.read_faults",
    "dsm.pages_in",           "dsm.bytes_in",
    "dsm.invalidations_sent", "dsm.conversions",
    "dsm.converted_elements", "dsm.convert_cache_hits",
    "dsm.convert_cache_misses", "dsm.mgr_migrations",
    "dsm.mgr_forwards",       "dsm.fault_retries",
    "dsm.confirm_probes",     "dsm.grant_extends",
    "dsm.stale_confirms",     "dsm.grants_revoked",
    "dsm.fenced_replies",     "dsm.deferred_writes",
    "dsm.upgrades",
    "net.packets_sent",       "net.bytes_sent",
    "net.packets_dropped",    "frag.messages_delivered",
    "reqrep.requests_sent",   "reqrep.retransmits",
    "reqrep.call_timeouts",
};

void MakeMatInputs(Inputs& in, const MatSpec& spec, std::mt19937_64& rng) {
  const int n = spec.n;
  in.n = n;
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  std::vector<std::int32_t> a(nn), b(nn);
  // Small integers: every IEEE <-> VAX conversion and every sum is exact.
  for (auto& v : a) v = static_cast<std::int32_t>(rng() % 19) - 9;
  for (auto& v : b) v = static_cast<std::int32_t>(rng() % 19) - 9;
  std::vector<std::int32_t> want(nn, 0);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const std::int32_t aik = a[static_cast<std::size_t>(i) * n + k];
      const std::int32_t* brow = &b[static_cast<std::size_t>(k) * n];
      std::int32_t* crow = &want[static_cast<std::size_t>(i) * n];
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  if (in.workload == Workload::kMm1Hetero) {
    in.a_f64.assign(a.begin(), a.end());
    in.b_f64.assign(b.begin(), b.end());
    in.want_f64.assign(want.begin(), want.end());
  } else {
    in.a_i32 = std::move(a);
    in.b_i32 = std::move(b);
    in.want_i32 = std::move(want);
  }
}

void MakeFleetInputs(Inputs& in, std::mt19937_64& rng) {
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (int w = 1; w <= kFleetWorkers; ++w) {
    // Each round, kFleetReads distinct pages of other workers, zipf-like
    // skewed over the hot set (rank ~ u^1.5).
    std::vector<int> reads;
    for (int r = 0; r < kFleetRounds; ++r) {
      const std::size_t round_begin = reads.size();
      while (reads.size() - round_begin < kFleetReads) {
        const double u = uniform();
        const int j = static_cast<int>(u * std::sqrt(u) * kFleetHotPages);
        if (j % kFleetWorkers == w - 1) continue;
        if (std::find(reads.begin() + static_cast<std::ptrdiff_t>(round_begin),
                      reads.end(), j) != reads.end()) {
          continue;
        }
        reads.push_back(j);
      }
    }
    in.read_sets.push_back(std::move(reads));
    std::vector<int> units;
    for (int r = 0; r < kFleetRounds; ++r) {
      units.push_back(300 + static_cast<int>(rng() % 2701));
    }
    in.compute_units.push_back(std::move(units));
  }
}

dsm::SystemConfig ConfigFor(const Inputs& in) {
  dsm::SystemConfig cfg;
  cfg.net.seed = in.net_seed;
  switch (in.workload) {
    case Workload::kMm1Hetero:
      cfg.net.jitter = kMm1.jitter;
      break;
    case Workload::kMm2Thrash:
      cfg.net.jitter = kMm2.jitter;
      break;
    case Workload::kFleetDir:
      cfg.net.jitter = kFleetJitter;
      cfg.region_bytes = std::uint64_t{kFleetRegionPages} * kFleetPageBytes;
      cfg.page_bytes_override = kFleetPageBytes;
      cfg.directory_mode = dsm::SystemConfig::DirectoryMode::kDynamic;
      cfg.directory_shards_per_host = 32;
      cfg.hot_page_migration = true;
      cfg.hot_page_threshold = 3;
      break;
  }
  return cfg;
}

std::vector<const arch::ArchProfile*> HostsFor(Workload w) {
  switch (w) {
    case Workload::kMm1Hetero:
    case Workload::kMm2Thrash: {
      const int fireflies =
          w == Workload::kMm1Hetero ? kMm1.fireflies : kMm2.fireflies;
      std::vector<const arch::ArchProfile*> v{&arch::Sun3Profile()};
      for (int i = 0; i < fireflies; ++i) v.push_back(&arch::FireflyProfile());
      return v;
    }
    case Workload::kFleetDir:
      return std::vector<const arch::ArchProfile*>(kFleetHosts,
                                                   &FleetProfile());
  }
  return {};
}

std::size_t ThreadCount(Workload w) {
  switch (w) {
    case Workload::kMm1Hetero: return kMm1.threads;
    case Workload::kMm2Thrash: return kMm2.threads;
    case Workload::kFleetDir: return kFleetWorkers;
  }
  return 0;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kMm1Hetero: return "mm1-hetero";
    case Workload::kMm2Thrash: return "mm2-thrash";
    case Workload::kFleetDir: return "fleet-dir";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

Inputs MakeInputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  const std::uint64_t stream =
      SplitMix(seed ^ ((static_cast<std::uint64_t>(w) + 1) << 56));
  in.net_seed = SplitMix(stream);
  std::mt19937_64 rng(stream);
  switch (w) {
    case Workload::kMm1Hetero: MakeMatInputs(in, kMm1, rng); break;
    case Workload::kMm2Thrash: MakeMatInputs(in, kMm2, rng); break;
    case Workload::kFleetDir: MakeFleetInputs(in, rng); break;
  }
  return in;
}

RunResult RunOnce(const Inputs& in, const RunOptions& opt) {
  RunResult res;
  SpanLog* spans = opt.traced ? opt.spans : nullptr;
  Ctx c(in, spans);
  c.logs.resize(1 + ThreadCount(in.workload));
  if (in.workload == Workload::kFleetDir) c.stamp_reads.resize(kFleetWorkers);
  base::BulkCopyReset();  // process-global; count this run's copies only

  c.t_begin = HostSeconds();
  auto span_begin = [&] { return spans != nullptr ? spans->HostNow() : 0; };
  auto span_end = [&](const char* name, std::int64_t h0) {
    if (spans != nullptr) spans->Add(Span{name, 0, 0, h0, spans->HostNow(), 0, 0});
  };
  sim::Engine eng(opt.fast_engine ? sim::EngineOptions::AllOn()
                                  : sim::EngineOptions{});
  dsm::SystemConfig cfg = ConfigFor(in);
  cfg.trace = opt.traced;
  std::int64_t h0 = span_begin();
  dsm::System sys(eng, cfg, HostsFor(in.workload));
  span_end("dsm.System::System", h0);
  h0 = span_begin();
  sys.Start();
  span_end("dsm.System::Start", h0);
  c.sys = &sys;
  c.t_system_done = HostSeconds();

  switch (in.workload) {
    case Workload::kMm1Hetero:
      sys.SpawnThread(0, "master",
                      [&c](dsm::Host& h) { MatMaster<double>(c, kMm1, h); });
      break;
    case Workload::kMm2Thrash:
      sys.SpawnThread(0, "master", [&c](dsm::Host& h) {
        MatMaster<std::int32_t>(c, kMm2, h);
      });
      break;
    case Workload::kFleetDir:
      sys.SpawnThread(0, "master", [&c](dsm::Host& h) { FleetMaster(c, h); });
      break;
  }
  if (spans != nullptr) c.run_span = spans->Open("sim.Engine::Run", 0, 0);
  eng.Run();
  const double t_end = HostSeconds();
  const double cpu_end = CpuSeconds();
  if (spans != nullptr) spans->Close(c.run_span, eng.Now());

  res.setup_s = c.t_timed - c.t_begin;
  res.setup_system_s = c.t_system_done - c.t_begin;
  res.setup_init_s = c.t_timed - c.t_init_begin;
  res.wall_s = t_end - c.t_timed;
  res.cpu_s = cpu_end - c.cpu_timed;
  res.modeled_ns = c.sim_end - c.sim_begin;

  for (const ThreadLog& l : c.logs) {
    res.fault_ns.insert(res.fault_ns.end(), l.fault_ns.begin(),
                        l.fault_ns.end());
    res.sync_ns.insert(res.sync_ns.end(), l.sync_ns.begin(), l.sync_ns.end());
    res.access_ops += l.access_ops;
    res.sync_ops += l.sync_ops;
  }
  auto& stats = sys.GatherStats();
  for (const char* name : kCounters) res.counters[name] = stats.Count(name);
  const base::Histogram hops = stats.HistCopy("dsm.vm_fault_hops");
  res.hops_sum = hops.sum();
  res.hops_count = hops.count();
  res.switches = eng.switch_count();
  res.os_handoffs = eng.os_handoff_count();
  for (net::HostId h = 0; h < sys.num_hosts(); ++h) {
    res.manager_grants.push_back(
        static_cast<double>(sys.host(h).ManagerGrantsTotal()));
  }
  res.bulk_copies = base::BulkCopyCount();

  CheckLog& chk = res.checks;
  chk.Expect(c.master_done, "the master thread did not finish");
  switch (in.workload) {
    case Workload::kMm1Hetero:
      CheckMatrix(chk, c.got_f64, in.want_f64, in.n);
      break;
    case Workload::kMm2Thrash:
      CheckMatrix(chk, c.got_i32, in.want_i32, in.n);
      break;
    case Workload::kFleetDir:
      for (int w = 1; w <= kFleetWorkers; ++w) {
        CheckStampReads(chk, w, c.stamp_reads[static_cast<std::size_t>(w - 1)]);
      }
      for (int j = 0; j < kFleetHotPages; ++j) {
        const std::int32_t v =
            j < static_cast<int>(c.final_stamps.size())
                ? c.final_stamps[static_cast<std::size_t>(j)]
                : -1;
        chk.Expect(v == Stamp(kFleetRounds, j),
                   "final stamp of hot page " + std::to_string(j) + " is " +
                       std::to_string(v));
      }
      chk.Expect(res.Counter("dsm.mgr_migrations") > 0,
                 "the dynamic directory migrated no manager");
      break;
  }
  CheckQuiescence(chk, sys.CheckQuiescent());
  chk.Expect(res.fault_ns.size() >= kMinFaultSamples,
             "only " + std::to_string(res.fault_ns.size()) +
                 " blocking access calls; the fault tail needs " +
                 std::to_string(kMinFaultSamples));
  return res;
}

DirectoryShape DirectoryShapeOf(const Inputs& in) {
  DirectoryShape s;
  s.cfg = ConfigFor(in);
  const auto hosts = HostsFor(in.workload);
  s.hosts = static_cast<std::uint16_t>(hosts.size());
  // Largest-page policy unless the page size is forced.
  std::uint32_t page = s.cfg.page_bytes_override;
  if (page == 0) {
    for (const arch::ArchProfile* p : hosts) {
      page = std::max(page, p->vm_page_size);
    }
  }
  s.pages = static_cast<std::uint32_t>(s.cfg.region_bytes / page);
  return s;
}

Digest MakeDigest(const RunResult& r) {
  Digest d;
  auto add = [&d](const std::string& k, auto v) {
    d.emplace_back(k, std::to_string(v));
  };
  auto add_q = [&d](const std::string& k, std::optional<std::int64_t> v) {
    d.emplace_back(k, v ? std::to_string(*v) : std::string("n/a"));
  };
  add("modeled_ns", r.modeled_ns);
  add("fault_samples", r.fault_ns.size());
  add_q("fault_p50_ns", Quantile(r.fault_ns, 0.5));
  add_q("fault_p99_ns", TailQuantile(r.fault_ns, 0.99));
  add("sim.switches", r.switches);
  for (const auto& [k, v] : r.counters) add(k, v);
  add("dsm.vm_fault_hops_sum", r.hops_sum);
  add("dsm.vm_fault_hops_count", r.hops_count);
  std::string grants;
  for (double g : r.manager_grants) {
    grants += (grants.empty() ? "" : ",") + std::to_string(
                                                static_cast<long long>(g));
  }
  d.emplace_back("dsm.manager_grants", grants);
  add("access_ops", r.access_ops);
  add("sync.ops", r.sync_ops);
  add_q("sync.p50_ns", Quantile(r.sync_ns, 0.5));
  add("checks", r.checks.attempted);
  add("checks_failed", r.checks.failed);
  return d;
}

}  // namespace perfbench
