// Deterministic discrete-event virtual-time engine.
//
// Exactly one simulated process executes at a time: whenever the running
// process blocks (Delay or channel receive), the scheduler hands the baton
// to the waiting process with the smallest (wake_time, ready_seq) and
// advances the virtual clock to that time. Execution order is therefore a
// deterministic function of the program and its seeds, independent of OS
// scheduling — repeated runs produce identical event interleavings and
// identical virtual timings.
//
// How the minimum is found and control transferred (DESIGN.md §11):
// processes are user-level fibers driven by the thread that calls Run(),
// so a switch is a user-space context swap; ready processes sit in
// per-group heaps (one group per simulated host) merged by a (time, seq)
// heap; receive deadlines park on a hierarchical timer wheel; process
// records and channel items come from slabs. The event order equals that
// of the thread-per-process reference scheduler this engine replaced,
// frozen as fixtures in the sim_engine, engine_determinism and dsm_rc
// tests.
//
// Lifecycle: Spawn processes (daemon = server loops), then Run(). Run
// returns when every non-daemon process has finished; at that point all
// blocked channel receives return "shutdown" (nullopt) so daemons unwind.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "mermaid/base/slab.h"
#include "mermaid/sim/runtime.h"
#include "mermaid/sim/timer_wheel.h"

namespace mermaid::sim {

class Engine final : public Runtime {
 public:
  Engine() : Engine(EngineOptions{}) {}
  explicit Engine(EngineOptions opts);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Drives the simulation until all non-daemon processes finish and all
  // daemons have unwound. Returns the final virtual time. Must be called
  // exactly once, after at least one non-daemon Spawn.
  SimTime Run();

  // Runtime interface. Delay() must be called from a simulated process;
  // Now() and Spawn() may also be called from outside (before Run or, for
  // Now, after it).
  SimTime Now() override;
  void Delay(SimDuration d) override;
  void Spawn(std::string name, std::function<void()> fn,
             bool daemon = false) override;
  void SpawnOn(std::uint32_t group, std::string name,
               std::function<void()> fn, bool daemon = false) override;
  std::shared_ptr<ChanCore> MakeChan(
      std::function<void(void*)> deleter) override;
  void SetTracer(trace::Tracer* tracer) override { tracer_ = tracer; }
  void* AllocItem(std::size_t bytes) override;
  void FreeItem(void* p, std::size_t bytes) override;
  std::string SchedulerReport() override;

  // Number of scheduler picks so far, fast resumes included; the
  // determinism fixtures freeze it.
  std::uint64_t switch_count() const { return switch_count_; }
  // OS-level thread handoffs. Always 0: every process is a fiber on the
  // Run() thread. Kept for reports that print it next to switch_count().
  std::uint64_t os_handoff_count() const { return 0; }
  // Picks that kept running the process that just blocked, because it was
  // still the global minimum (no context swap at all).
  std::uint64_t fast_resume_count() const { return fast_resume_count_; }

  // Channels whose user-side handles are still alive (the engine itself
  // holds only weak references; see the MakeChan retention regression).
  std::size_t live_chan_count();

 private:
  struct Proc;
  class SimChan;
  friend class SimChan;
  struct FiberState;

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  // Per-group ready heap entry; stale entries (seq no longer the process's
  // current seq) are dropped lazily on pop.
  struct QEntry {
    SimTime t;
    std::uint64_t seq;
    Proc* p;
  };
  struct QEntryGt {
    bool operator()(const QEntry& a, const QEntry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  using MinQ =
      std::priority_queue<QEntry, std::vector<QEntry>, QEntryGt>;
  struct MergeEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t group;
  };
  struct MergeGt {
    bool operator()(const MergeEntry& a, const MergeEntry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  using MergeQ =
      std::priority_queue<MergeEntry, std::vector<MergeEntry>, MergeGt>;

  void SpawnInternal(std::int64_t group, std::string name,
                     std::function<void()> fn, bool daemon);
  // Marks `p` schedulable at time `t` (only ever moves the wake earlier).
  void MakeReadyLocked(Proc* p, SimTime t);
  // Files `p` under its current (wake_time, seq) into its sub-queue or, for
  // a receive deadline, the timer wheel.
  void EnqueueLocked(Proc* p);
  void CancelTimerLocked(Proc* p);
  void PruneSubLocked(MinQ& q);
  // Valid top of the sub-queue/merge structure without removing it.
  Proc* PeekSubLocked(SimTime* t, std::uint64_t* seq);
  bool PeekNextLocked(SimTime* t, std::uint64_t* seq);
  // Picks (and dequeues) the runnable process with the global minimum
  // (wake_time, seq); nullptr if none.
  Proc* PickNextLocked();
  void DispatchLocked(Proc* p);
  // Blocks the calling process until the scheduler resumes it.
  void SwitchOutLocked(std::unique_lock<std::mutex>& lk, Proc* self);
  void InitiateShutdownLocked();
  [[noreturn]] void DeadlockLocked();
  void PruneChansLocked();
  void DestroyProcs();
  // Fiber machinery: each process is a ucontext fiber; the Run() thread's
  // own context is the scheduler every fiber switches back to.
  void CreateFiber(Proc* p);
  void SwitchToFiber(Proc* p);
  void SwitchToScheduler(Proc* p, bool final_exit);
  void FiberMain(Proc* p);
  static void FiberTrampoline(unsigned hi, unsigned lo);

  SimTime now_rel() const { return now_.load(std::memory_order_relaxed); }

  const std::size_t fiber_stack_bytes_;
  std::mutex mu_;
  std::vector<Proc*> procs_;
  std::vector<std::weak_ptr<SimChan>> chans_;
  std::size_t chan_prune_at_ = 64;
  std::uint64_t chans_created_ = 0;
  Proc* current_ = nullptr;
  // Written only at dispatch (under mu_); read lock-free by Now() — the
  // running process is ordered after its own dispatch, so it always sees
  // the current value.
  std::atomic<SimTime> now_{0};
  std::uint64_t ready_seq_ = 0;
  std::uint64_t push_seq_ = 0;
  std::uint64_t switch_count_ = 0;
  std::uint64_t fast_resume_count_ = 0;
  int live_nondaemon_ = 0;
  int live_total_ = 0;
  bool shutting_down_ = false;
  bool run_done_ = false;
  bool run_called_ = false;
  trace::Tracer* tracer_ = nullptr;

  std::vector<MinQ> subqueues_;
  MergeQ merge_;
  std::uint32_t rr_group_ = 0;
  TimerWheel wheel_;
  std::unique_ptr<FiberState> fibers_;
  base::Slab proc_slab_;
  std::mutex slab_mu_;  // item slab only: Send may run outside mu_
  base::SlabPool item_slab_;
};

}  // namespace mermaid::sim
