// The Mermaid benchmark driver. perfbench/run.py builds and runs it; see
// perfbench/README.md.
//
//   mermaid_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans-dir DIR] [--engine default|allon]
//     Repeats the workload for S seconds of host time (at least
//     kMinIterations times) and prints the end-to-end metrics (--trace 0)
//     or the per-layer metrics (--trace 1), then one JSON line:
//     {"correct", "attempted", "failed", "metrics"}. --engine allon runs
//     the workloads under sim::EngineOptions::AllOn() instead of the
//     default engine, for reference figures.
//   mermaid_perfbench --digest [--workload NAME] [--seed N]
//     Prints every modeled quantity of each workload under the default
//     engine and under sim::EngineOptions::AllOn(), and fails unless the
//     two digests are identical.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "micro.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinIterations = 3;

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool digest = false;
  bool fast_engine = false;  // --engine allon: sim::EngineOptions::AllOn()
  std::string spans_dir = ".bench_build/perfbench/spans";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "mermaid_perfbench: %s\n"
               "usage: mermaid_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-dir DIR]\n"
               "                         [--engine default|allon]\n"
               "       mermaid_perfbench --digest [--workload NAME] "
               "[--seed N]\n"
               "workloads: mm1-hetero mm2-thrash fleet-dir\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      a.digest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = ParseWorkload(v);
      if (!a.workload) Usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else if (flag == "--engine") {
      if (v != "default" && v != "allon") Usage("--engine takes default or allon");
      a.fast_engine = v == "allon";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.digest && (!a.workload || !have_seconds || !have_trace)) {
    Usage("--workload, --seconds and --trace are required");
  }
  return a;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ms(std::optional<std::int64_t> ns) {
  return ns ? static_cast<double>(*ns) / 1e6 : 0;
}

std::vector<double> Field(const std::vector<RunResult>& runs,
                          double RunResult::*f) {
  std::vector<double> v;
  for (const RunResult& r : runs) v.push_back(r.*f);
  return v;
}

// Checks that every run repeats `ref`'s modeled digest exactly.
void CheckDigests(CheckLog& log, const Digest& ref,
                  const std::vector<RunResult>& runs, const char* what) {
  for (const RunResult& r : runs) {
    log.Expect(MakeDigest(r) == ref,
               std::string(what) + ": modeled digest differs from the "
                                   "first untraced run");
  }
}

void PrintFailures(const CheckLog& log) {
  for (const std::string& f : log.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
}

void PrintResult(const CheckLog& log, std::int64_t calls,
                 const std::vector<Metric>& metrics) {
  const std::int64_t attempted = calls + log.attempted;
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintFailures(log);
  std::string json = "{\"correct\": ";
  json += log.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(log.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Access and sync calls; the result checks are counted in the CheckLog.
std::int64_t Calls(const std::vector<RunResult>& runs) {
  std::int64_t n = 0;
  for (const RunResult& r : runs) n += r.access_ops + r.sync_ops;
  return n;
}

void MergeChecks(CheckLog& log, const std::vector<RunResult>& runs) {
  for (const RunResult& r : runs) log.Merge(r.checks);
}

RunOptions PlainRun(const Args& a) {
  RunOptions opt;
  opt.fast_engine = a.fast_engine;
  return opt;
}

int RunEndToEnd(const Args& a) {
  const Inputs in = MakeInputs(*a.workload, a.seed);
  std::vector<RunResult> runs;
  const double start = Now();
  while (static_cast<int>(runs.size()) < kMinIterations ||
         Now() - start < a.seconds) {
    runs.push_back(RunOnce(in, PlainRun(a)));
    const RunResult& r = runs.back();
    std::printf("iteration %zu: setup_s %.4f wall_s %.4f cpu_s %.4f\n",
                runs.size(), r.setup_s, r.wall_s, r.cpu_s);
  }
  const RunResult& first = runs.front();
  CheckLog log;
  MergeChecks(log, runs);
  CheckDigests(log, MakeDigest(first), runs, "untraced repeat");

  std::printf("workload %s seed %llu: %zu iterations, %zu fault samples\n",
              WorkloadName(in.workload),
              static_cast<unsigned long long>(a.seed), runs.size(),
              first.fault_ns.size());
  const std::vector<Metric> metrics = {
      {"setup_s", Median(Field(runs, &RunResult::setup_s)), "s"},
      {"wall_s", Median(Field(runs, &RunResult::wall_s)), "s"},
      {"cpu_s", Median(Field(runs, &RunResult::cpu_s)), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"modeled_s", static_cast<double>(first.modeled_ns) / 1e9, "s"},
      {"fault_p50_ms", Ms(Quantile(first.fault_ns, 0.5)), "ms"},
      {"fault_p99_ms", Ms(TailQuantile(first.fault_ns, 0.99)), "ms"},
      {"wire_mb",
       static_cast<double>(first.Counter("net.bytes_sent")) / 1e6, "MB"},
  };
  PrintResult(log, Calls(runs), metrics);
  return log.failed == 0 ? 0 : 1;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunTraced(const Args& a) {
  const Inputs in = MakeInputs(*a.workload, a.seed);
  std::vector<RunResult> plain, traced;
  std::unique_ptr<SpanLog> spans;  // the last traced iteration's spans
  const double start = Now();
  while (static_cast<int>(traced.size()) < kMinIterations ||
         Now() - start < a.seconds) {
    plain.push_back(RunOnce(in, PlainRun(a)));
    spans = std::make_unique<SpanLog>();
    RunOptions opt = PlainRun(a);
    opt.traced = true;
    opt.spans = spans.get();
    traced.push_back(RunOnce(in, opt));
  }
  const std::size_t run_spans = spans->Snapshot().size();
  const std::map<std::string, double> micro = RunMicro(in, *spans);

  const RunResult& u = plain.front();
  CheckLog log;
  MergeChecks(log, plain);
  MergeChecks(log, traced);
  const Digest ref = MakeDigest(u);
  CheckDigests(log, ref, plain, "untraced repeat");
  CheckDigests(log, ref, traced, "traced run");

  const std::vector<Span> all = spans->Snapshot();
  std::uint64_t access_elems = 0;
  std::int64_t access_ns = 0;
  std::printf("%-32s %9s %9s %12s %14s\n", "span", "calls", "blocked",
              "host_self_ms", "modeled_blk_ms");
  for (const SpanTotals& t : Summarize(all)) {
    std::printf("%-32s %9llu %9llu %12.3f %14.3f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.calls),
                static_cast<unsigned long long>(t.blocked),
                static_cast<double>(t.host_self_ns) / 1e6,
                static_cast<double>(t.sim_blocked_ns) / 1e6);
    if (t.name.rfind("dsm.Host::", 0) == 0) {  // every access call
      access_elems += t.elems;
      access_ns += t.host_self_ns;
    }
  }
  std::filesystem::create_directories(a.spans_dir);
  const std::string path =
      a.spans_dir + "/" + WorkloadName(in.workload) + ".tsv";
  const bool written = spans->WriteTsv(path);
  log.Expect(written, "cannot write spans to " + path);
  if (written) std::printf("wrote %zu spans to %s\n", all.size(), path.c_str());

  const double wall = Median(Field(plain, &RunResult::wall_s));
  const double cpu = Median(Field(plain, &RunResult::cpu_s));
  const double faults = static_cast<double>(u.Counter("dsm.vm_faults"));
  const double hits = static_cast<double>(u.Counter("dsm.convert_cache_hits"));
  const double lookups =
      hits + static_cast<double>(u.Counter("dsm.convert_cache_misses"));
  auto count = [&u](const char* c) {
    return static_cast<double>(u.Counter(c));
  };
  std::vector<Metric> metrics = {
      {"sim.switches", static_cast<double>(u.switches), "count"},
      {"sim.os_handoffs", static_cast<double>(u.os_handoffs), "count"},
      {"sim.ns_per_switch", Ratio(wall * 1e9, static_cast<double>(u.switches)),
       "ns"},
      {"dsm.faults", faults, "count"},
      {"dsm.fault_samples", static_cast<double>(u.fault_ns.size()), "count"},
      {"dsm.pages_in", count("dsm.pages_in"), "count"},
      {"dsm.invalidations", count("dsm.invalidations_sent"), "count"},
      {"dsm.hops_per_fault",
       Ratio(u.hops_sum, static_cast<double>(u.hops_count)), "hops"},
      {"dsm.cpu_us_per_fault", Ratio(cpu * 1e6, faults), "us"},
      {"dsm.access_ns_per_elem",
       Ratio(static_cast<double>(access_ns), static_cast<double>(access_elems)),
       "ns/elem"},
      {"dsm.conversions", count("dsm.conversions"), "count"},
      {"dsm.convert_cache_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"dsm.convert_cache_lookups", lookups, "count"},
      {"dsm.setup_system_ms",
       Median(Field(plain, &RunResult::setup_system_s)) * 1e3, "ms"},
      {"dsm.setup_init_ms",
       Median(Field(plain, &RunResult::setup_init_s)) * 1e3, "ms"},
      {"dsm.dir_build_ms", micro.at("dsm.dir_build_ms"), "ms"},
      {"dsm.dir_lookup_ns", micro.at("dsm.dir_lookup_ns"), "ns"},
      {"dsm.dir_gini", Gini(u.manager_grants), "ratio"},
      {"dsm.dir_migrations", count("dsm.mgr_migrations"), "count"},
      {"dsm.dir_forwards", count("dsm.mgr_forwards"), "count"},
  };
  for (const char* k :
       {"arch.load_ns.int", "arch.load_ns.float", "arch.load_ns.double",
        "arch.convert_ns.short", "arch.convert_ns.int", "arch.convert_ns.float",
        "arch.convert_ns.double", "arch.convert_ns.record"}) {
    metrics.push_back({k, micro.at(k), "ns/elem"});
  }
  const std::vector<Metric> rest = {
      {"net.packets", count("net.packets_sent"), "count"},
      {"net.frag_messages", count("frag.messages_delivered"), "count"},
      {"net.reassembly_us_per_8k", micro.at("net.reassembly_us_per_8k"), "us"},
      {"net.reqrep_timeouts", count("reqrep.call_timeouts"), "count"},
      {"base.stats_inc_ns", micro.at("base.stats_inc_ns"), "ns"},
      {"base.wire_roundtrip_ns", micro.at("base.wire_roundtrip_ns"), "ns"},
      {"base.bulk_copies_per_page",
       Ratio(static_cast<double>(u.bulk_copies), count("dsm.pages_in")),
       "copies"},
      {"sync.ops", static_cast<double>(u.sync_ops), "count"},
      {"sync.p50_ms", Ms(Quantile(u.sync_ns, 0.5)), "ms"},
      {"trace.overhead_pct",
       (Ratio(Median(Field(traced, &RunResult::wall_s)), wall) - 1) * 100,
       "%"},
      {"trace.spans", static_cast<double>(run_spans), "count"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  std::printf("workload %s seed %llu: %zu untraced + %zu traced iterations\n",
              WorkloadName(in.workload),
              static_cast<unsigned long long>(a.seed), plain.size(),
              traced.size());
  PrintResult(log, Calls(plain) + Calls(traced), metrics);
  return log.failed == 0 ? 0 : 1;
}

int RunDigest(const Args& a) {
  bool ok = true;
  for (Workload w : kAllWorkloads) {
    if (a.workload && *a.workload != w) continue;
    const Inputs in = MakeInputs(w, a.seed);
    RunOptions fast;
    fast.fast_engine = true;
    const RunResult legacy = RunOnce(in, RunOptions{});
    const RunResult allon = RunOnce(in, fast);
    const Digest d0 = MakeDigest(legacy);
    const Digest d1 = MakeDigest(allon);
    std::printf("== %s seed %llu ==\n", WorkloadName(w),
                static_cast<unsigned long long>(a.seed));
    std::printf("%-28s %-24s %s\n", "quantity", "default", "AllOn()");
    for (std::size_t i = 0; i < d0.size(); ++i) {
      const std::string other = i < d1.size() ? d1[i].second : "(missing)";
      std::printf("%-28s %-24s %s%s\n", d0[i].first.c_str(),
                  d0[i].second.c_str(), other.c_str(),
                  other == d0[i].second ? "" : "   <-- DIFFERS");
    }
    std::printf("host wall_s: default %.3f, AllOn() %.3f\n", legacy.wall_s,
                allon.wall_s);
    PrintFailures(legacy.checks);
    PrintFailures(allon.checks);
    const bool same = d0 == d1;
    const bool checked = legacy.checks.failed == 0 && allon.checks.failed == 0;
    std::printf("parity %s: %s\n", WorkloadName(w),
                same && checked ? "identical"
                                : (same ? "identical, but checks failed"
                                        : "DIGESTS DIFFER"));
    ok = ok && same && checked;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = ParseArgs(argc, argv);
  // Steadier host figures. The default engine runs one OS thread per
  // simulated process but only one at a time; on one CPU each handoff is a
  // local context switch instead of a cross-CPU wake-up, whose latency
  // varies with the machine's state. One malloc arena keeps the peak RSS
  // from depending on which arena each short-lived thread happened to get.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  mallopt(M_ARENA_MAX, 1);
  if (a.digest) return RunDigest(a);
  return a.trace ? RunTraced(a) : RunEndToEnd(a);
}
