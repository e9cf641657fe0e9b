#include "mermaid/sim/engine.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <queue>

#include "mermaid/base/check.h"
#include "mermaid/trace/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#define MERMAID_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MERMAID_HAS_ASAN 1
#endif
#endif

#ifdef MERMAID_HAS_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define MERMAID_HAS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MERMAID_HAS_TSAN 1
#endif
#endif

#ifdef MERMAID_HAS_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

namespace mermaid::sim {

namespace {
// Identifies the process the current OS thread is running, to catch misuse
// of process-only calls from the wrong thread. Every process runs on the
// Run() thread, so the scheduler sets/clears this around each fiber swap.
thread_local void* tls_proc = nullptr;

// Ungrouped Spawn calls are spread round-robin over this many sub-queues.
constexpr std::uint32_t kDefaultGroups = 16;

// ASan must be told about every stack switch or it poisons/unpoisons the
// wrong frames and reports false stack-use-after-return. No-ops elsewhere.
inline void AsanStartSwitch(void** fake_save, const void* stack_lo,
                            std::size_t stack_sz) {
#ifdef MERMAID_HAS_ASAN
  __sanitizer_start_switch_fiber(fake_save, stack_lo, stack_sz);
#else
  (void)fake_save;
  (void)stack_lo;
  (void)stack_sz;
#endif
}

inline void AsanFinishSwitch(void* fake_restore, const void** old_lo,
                             std::size_t* old_sz) {
#ifdef MERMAID_HAS_ASAN
  __sanitizer_finish_switch_fiber(fake_restore, old_lo, old_sz);
#else
  (void)fake_restore;
  (void)old_lo;
  (void)old_sz;
#endif
}

// TSan keeps a shadow call stack per thread; a swapcontext it is not told
// about leaves that stack describing the wrong fiber, so reports would
// carry garbled stacks. Annotated, each fiber has its own, and a switch
// orders the two fibers (happens-before), matching the engine's
// one-process-at-a-time semantics. No-ops elsewhere.
inline void* TsanCreateFiber() {
#ifdef MERMAID_HAS_TSAN
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void* TsanCurrentFiber() {
#ifdef MERMAID_HAS_TSAN
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void TsanSwitchToFiber(void* fiber) {
#ifdef MERMAID_HAS_TSAN
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

inline void TsanDestroyFiber(void* fiber) {
#ifdef MERMAID_HAS_TSAN
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}
}  // namespace

struct Engine::Proc {
  Engine* eng = nullptr;
  std::string name;
  std::function<void()> fn;
  bool daemon = false;
  bool done = false;
  // Earliest virtual time at which this process may resume; kNever while it
  // is blocked with nothing to wait for.
  SimTime wake_time = 0;
  std::uint64_t seq = 0;
  bool running = false;
  // Scheduler affinity group (sub-queue index).
  std::uint32_t group = 0;
  // True when the current (wake_time, seq) is a receive deadline rather
  // than a pending delivery/delay: deadline waits park on the timer wheel.
  bool wake_is_deadline = false;
  TimerWheel::Timer* timer = nullptr;  // wheel node while parked there
  // Fiber context plus an mmapped stack with a guard page at the low end.
  // asan_fake is ASan's fake-stack handle for this fiber, tsan_fiber TSan's.
  ucontext_t uctx = {};
  void* stack_base = nullptr;
  std::size_t stack_total = 0;
  void* stack_lo = nullptr;
  std::size_t stack_usable = 0;
  void* asan_fake = nullptr;
  void* tsan_fiber = nullptr;
};

// The Run() thread's own context: the scheduler every fiber returns to.
struct Engine::FiberState {
  ucontext_t sched_ctx = {};
  void* sched_fake = nullptr;  // ASan handle for the Run() thread's stack
  const void* sched_lo = nullptr;
  std::size_t sched_sz = 0;
  void* sched_tsan = nullptr;  // TSan fiber of the Run() thread
};

class Engine::SimChan final : public ChanCore {
 public:
  SimChan(Engine* eng, std::function<void(void*)> deleter)
      : eng_(eng), deleter_(std::move(deleter)) {}

  ~SimChan() override {
    while (!items_.empty()) {
      deleter_(items_.top().item);
      items_.pop();
    }
  }

  void Push(void* item, SimTime deliver_time) override {
    std::unique_lock<std::mutex> lk(eng_->mu_);
    if (eng_->shutting_down_) {
      deleter_(item);
      return;
    }
    deliver_time = std::max(deliver_time, eng_->now_rel());
    items_.push(Item{deliver_time, ++eng_->push_seq_, item});
    for (Proc* w : waiters_) eng_->MakeReadyLocked(w, deliver_time);
  }

  void* Pop(SimTime deadline, bool* timed_out) override {
    if (timed_out != nullptr) *timed_out = false;
    std::unique_lock<std::mutex> lk(eng_->mu_);
    Proc* self = eng_->current_;
    MERMAID_CHECK_MSG(self != nullptr && tls_proc == self,
                      "Chan::Recv called outside a simulated process");
    for (;;) {
      if (eng_->shutting_down_) return nullptr;
      if (!items_.empty() && items_.top().deliver <= eng_->now_rel()) {
        void* item = items_.top().item;
        items_.pop();
        return item;
      }
      if (deadline >= 0 && eng_->now_rel() >= deadline) {
        if (timed_out != nullptr) *timed_out = true;
        return nullptr;
      }
      SimTime wake = kNever;
      if (!items_.empty()) wake = items_.top().deliver;
      // Deadline-bound iff the deadline is strictly the earliest reason to
      // wake; on a tie the pending delivery wins the classification (the
      // (time, seq) key is the same either way, so the schedule is too).
      bool deadline_bound = false;
      if (deadline >= 0 && deadline < wake) {
        wake = deadline;
        deadline_bound = true;
      }
      self->wake_time = wake;
      self->wake_is_deadline = deadline_bound;
      self->seq = ++eng_->ready_seq_;
      waiters_.push_back(self);
      eng_->SwitchOutLocked(lk, self);
      waiters_.erase(std::find(waiters_.begin(), waiters_.end(), self));
    }
  }

  void* TryPop() override {
    std::unique_lock<std::mutex> lk(eng_->mu_);
    if (!items_.empty() && items_.top().deliver <= eng_->now_rel()) {
      void* item = items_.top().item;
      items_.pop();
      return item;
    }
    return nullptr;
  }

 private:
  struct Item {
    SimTime deliver;
    std::uint64_t seq;  // FIFO order among equal delivery times
    void* item;
    bool operator>(const Item& o) const {
      return deliver != o.deliver ? deliver > o.deliver : seq > o.seq;
    }
  };

  Engine* eng_;
  std::function<void(void*)> deleter_;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> items_;
  std::vector<Proc*> waiters_;
};

Engine::Engine(EngineOptions opts)
    : fiber_stack_bytes_(opts.fiber_stack_bytes),
      subqueues_(kDefaultGroups),
      fibers_(std::make_unique<FiberState>()),
      proc_slab_(sizeof(Proc), /*blocks_per_chunk=*/64) {}

Engine::~Engine() {
  if (!run_called_ && live_total_ > 0) {
    // Processes were spawned but never driven; run them to completion so
    // their fibers can be reaped.
    Run();
  }
  DestroyProcs();
}

void Engine::DestroyProcs() {
  for (Proc* p : procs_) {
    void* stack = p->stack_base;
    const std::size_t total = p->stack_total;
    TsanDestroyFiber(p->tsan_fiber);
    p->~Proc();
    proc_slab_.Free(p);
    if (stack != nullptr) munmap(stack, total);
  }
  procs_.clear();
}

SimTime Engine::Now() { return now_.load(std::memory_order_acquire); }

void Engine::Delay(SimDuration d) {
  MERMAID_CHECK(d >= 0);
  std::unique_lock<std::mutex> lk(mu_);
  Proc* self = current_;
  MERMAID_CHECK_MSG(self != nullptr && tls_proc == self,
                    "Delay called outside a simulated process");
  self->wake_time = now_rel() + d;
  self->wake_is_deadline = false;
  self->seq = ++ready_seq_;
  SwitchOutLocked(lk, self);
}

void Engine::Spawn(std::string name, std::function<void()> fn, bool daemon) {
  SpawnInternal(-1, std::move(name), std::move(fn), daemon);
}

void Engine::SpawnOn(std::uint32_t group, std::string name,
                     std::function<void()> fn, bool daemon) {
  SpawnInternal(static_cast<std::int64_t>(group), std::move(name),
                std::move(fn), daemon);
}

void Engine::SpawnInternal(std::int64_t group, std::string name,
                           std::function<void()> fn, bool daemon) {
  std::unique_lock<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(!run_done_, "Spawn after Run completed");
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(trace::EventKind::kProcSpawn, trace::kNoHost, now_rel(),
                    trace::kNoPage, static_cast<std::uint64_t>(procs_.size()),
                    0, daemon ? 1 : 0);
  }
  Proc* p = new (proc_slab_.Alloc()) Proc();
  p->eng = this;
  p->name = std::move(name);
  p->fn = std::move(fn);
  p->daemon = daemon;
  p->wake_time = now_rel();
  p->wake_is_deadline = false;
  p->seq = ++ready_seq_;
  p->group = group >= 0 ? static_cast<std::uint32_t>(group)
                        : (rr_group_++ & (kDefaultGroups - 1));
  if (subqueues_.size() <= p->group) subqueues_.resize(p->group + 1);
  ++live_total_;
  if (!daemon) ++live_nondaemon_;
  procs_.push_back(p);
  EnqueueLocked(p);
  CreateFiber(p);
}

std::shared_ptr<ChanCore> Engine::MakeChan(
    std::function<void(void*)> deleter) {
  auto ch = std::make_shared<SimChan>(this, std::move(deleter));
  std::unique_lock<std::mutex> lk(mu_);
  ++chans_created_;
  if (chans_.size() >= chan_prune_at_) PruneChansLocked();
  chans_.push_back(ch);
  return ch;
}

void Engine::PruneChansLocked() {
  std::erase_if(chans_,
                [](const std::weak_ptr<SimChan>& w) { return w.expired(); });
  chan_prune_at_ = std::max<std::size_t>(64, 2 * chans_.size());
}

std::size_t Engine::live_chan_count() {
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& w : chans_) {
    if (!w.expired()) ++n;
  }
  return n;
}

void* Engine::AllocItem(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(slab_mu_);
  return item_slab_.Alloc(bytes);
}

void Engine::FreeItem(void* p, std::size_t bytes) {
  std::lock_guard<std::mutex> lk(slab_mu_);
  item_slab_.Free(p, bytes);
}

SimTime Engine::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(!run_called_, "Engine::Run called twice");
  run_called_ = true;
  fibers_->sched_tsan = TsanCurrentFiber();
  for (;;) {
    MERMAID_CHECK(current_ == nullptr);
    Proc* best = PickNextLocked();
    if (best == nullptr) {
      if (live_total_ == 0) break;
      if (!shutting_down_ && live_nondaemon_ == 0) {
        InitiateShutdownLocked();
        continue;  // daemons are now schedulable
      }
      DeadlockLocked();
    }
    DispatchLocked(best);
    lk.unlock();
    SwitchToFiber(best);
    lk.lock();
  }
  run_done_ = true;
  return now_rel();
}

void Engine::MakeReadyLocked(Proc* p, SimTime t) {
  if (t < p->wake_time) {
    p->wake_time = t;
    p->wake_is_deadline = false;
    p->seq = ++ready_seq_;
    CancelTimerLocked(p);
    EnqueueLocked(p);
  }
}

void Engine::EnqueueLocked(Proc* p) {
  if (p->done || p->running || p->wake_time == kNever) return;
  if (p->wake_is_deadline) {
    p->timer = wheel_.Arm(p->wake_time, p->seq, p);
    return;
  }
  MinQ& q = subqueues_[p->group];
  q.push(QEntry{p->wake_time, p->seq, p});
  // Maintain the merge invariant (an entry with key <= each sub-queue's
  // true min): only a new sub-queue minimum needs advertising.
  if (q.top().seq == p->seq) {
    merge_.push(MergeEntry{p->wake_time, p->seq, p->group});
  }
}

void Engine::CancelTimerLocked(Proc* p) {
  if (p->timer != nullptr) {
    wheel_.Cancel(p->timer);
    p->timer = nullptr;
  }
}

void Engine::PruneSubLocked(MinQ& q) {
  while (!q.empty()) {
    const QEntry& e = q.top();
    if (!e.p->done && !e.p->running && e.seq == e.p->seq) return;
    q.pop();  // stale: the process was rescheduled under a newer seq
  }
}

Engine::Proc* Engine::PeekSubLocked(SimTime* t, std::uint64_t* seq) {
  for (;;) {
    if (merge_.empty()) return nullptr;
    const MergeEntry m = merge_.top();
    MinQ& q = subqueues_[m.group];
    PruneSubLocked(q);
    if (q.empty()) {
      merge_.pop();
      continue;
    }
    const QEntry& top = q.top();
    if (top.t != m.t || top.seq != m.seq) {
      // Stale advertisement; replace it with the queue's current min.
      merge_.pop();
      merge_.push(MergeEntry{top.t, top.seq, m.group});
      continue;
    }
    *t = top.t;
    *seq = top.seq;
    return top.p;
  }
}

bool Engine::PeekNextLocked(SimTime* t, std::uint64_t* seq) {
  SimTime st;
  std::uint64_t ss;
  Proc* sub = PeekSubLocked(&st, &ss);
  bool have = sub != nullptr;
  if (have) {
    *t = st;
    *seq = ss;
  }
  SimTime wt;
  std::uint64_t ws;
  if (wheel_.PeekMin(now_rel(), &wt, &ws)) {
    if (!have || wt < *t || (wt == *t && ws < *seq)) {
      *t = wt;
      *seq = ws;
      have = true;
    }
  }
  return have;
}

Engine::Proc* Engine::PickNextLocked() {
  SimTime st = 0;
  std::uint64_t ss = 0;
  Proc* sub = PeekSubLocked(&st, &ss);
  SimTime wt;
  std::uint64_t ws;
  if (wheel_.PeekMin(now_rel(), &wt, &ws)) {
    if (sub == nullptr || wt < st || (wt == st && ws < ss)) {
      Proc* p = static_cast<Proc*>(wheel_.PopMin(now_rel()));
      p->timer = nullptr;
      return p;
    }
  }
  if (sub == nullptr) return nullptr;
  const std::uint32_t g = merge_.top().group;
  subqueues_[g].pop();
  merge_.pop();
  PruneSubLocked(subqueues_[g]);
  if (!subqueues_[g].empty()) {
    const QEntry& next = subqueues_[g].top();
    merge_.push(MergeEntry{next.t, next.seq, g});
  }
  return sub;
}

void Engine::DispatchLocked(Proc* p) {
  now_.store(std::max(now_rel(), p->wake_time), std::memory_order_release);
  current_ = p;
  p->running = true;
  ++switch_count_;
}

void Engine::SwitchOutLocked(std::unique_lock<std::mutex>& lk, Proc* self) {
  MERMAID_CHECK(current_ == self);
  if (self->wake_time != kNever) {
    // Fast resume: if this process's new (wake, seq) is still the global
    // minimum, the scheduler would pick it right back — skip the
    // enqueue/pick round-trip and both context swaps.
    SimTime bt;
    std::uint64_t bs;
    if (!PeekNextLocked(&bt, &bs) || self->wake_time < bt ||
        (self->wake_time == bt && self->seq < bs)) {
      now_.store(std::max(now_rel(), self->wake_time),
                 std::memory_order_release);
      ++switch_count_;  // still a pick: the switch count stays comparable
      ++fast_resume_count_;
      return;
    }
  }
  self->running = false;
  EnqueueLocked(self);
  current_ = nullptr;
  // The scheduler loop owns the lock discipline; a fiber must release the
  // mutex before swapping (the Run() thread re-acquires it).
  lk.unlock();
  SwitchToScheduler(self, /*final_exit=*/false);
  lk.lock();
}

void Engine::InitiateShutdownLocked() {
  shutting_down_ = true;
  // Wake every blocked process so channel receives observe shutdown.
  for (Proc* p : procs_) {
    if (p->done || p->running) continue;
    if (p->wake_time > now_rel()) {
      p->wake_time = now_rel();
      p->wake_is_deadline = false;
      p->seq = ++ready_seq_;
      CancelTimerLocked(p);
      EnqueueLocked(p);
    }
  }
}

void Engine::DeadlockLocked() {
  std::fprintf(stderr,
               "sim::Engine deadlock at t=%lld ns: all %d live processes "
               "blocked with no pending event\n",
               static_cast<long long>(now_rel()), live_total_);
  for (Proc* p : procs_) {
    if (!p->done) {
      std::fprintf(stderr, "  blocked: %s\n", p->name.c_str());
    }
  }
  std::abort();
}

// ---------------------------------------------------------------------------
// Fiber machinery.

void Engine::FiberTrampoline(unsigned hi, unsigned lo) {
  auto* p = reinterpret_cast<Proc*>((static_cast<std::uintptr_t>(hi) << 32) |
                                    static_cast<std::uintptr_t>(lo));
  p->eng->FiberMain(p);
}

void Engine::CreateFiber(Proc* p) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::size_t usable = fiber_stack_bytes_;
  usable = (usable + page - 1) & ~(page - 1);
  const std::size_t total = usable + page;  // + guard page at the low end
  void* base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  MERMAID_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  MERMAID_CHECK(mprotect(base, page, PROT_NONE) == 0);
  p->stack_base = base;
  p->stack_total = total;
  p->stack_lo = static_cast<char*>(base) + page;
  p->stack_usable = usable;
  MERMAID_CHECK(getcontext(&p->uctx) == 0);
  p->uctx.uc_stack.ss_sp = p->stack_lo;
  p->uctx.uc_stack.ss_size = usable;
  p->uctx.uc_link = nullptr;
  // makecontext only forwards ints; split the pointer across two.
  const auto ptr = reinterpret_cast<std::uintptr_t>(p);
  makecontext(&p->uctx, reinterpret_cast<void (*)()>(&Engine::FiberTrampoline),
              2, static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
  p->tsan_fiber = TsanCreateFiber();
}

void Engine::SwitchToFiber(Proc* p) {
  tls_proc = p;
  AsanStartSwitch(&fibers_->sched_fake, p->stack_lo, p->stack_usable);
  TsanSwitchToFiber(p->tsan_fiber);
  swapcontext(&fibers_->sched_ctx, &p->uctx);
  AsanFinishSwitch(fibers_->sched_fake, nullptr, nullptr);
  tls_proc = nullptr;
}

void Engine::SwitchToScheduler(Proc* p, bool final_exit) {
  // On final exit pass nullptr so ASan releases this fiber's fake stack.
  AsanStartSwitch(final_exit ? nullptr : &p->asan_fake, fibers_->sched_lo,
                  fibers_->sched_sz);
  TsanSwitchToFiber(fibers_->sched_tsan);
  swapcontext(&p->uctx, &fibers_->sched_ctx);
  AsanFinishSwitch(p->asan_fake, &fibers_->sched_lo, &fibers_->sched_sz);
}

void Engine::FiberMain(Proc* p) {
  // First entry: no fake stack to restore; record the scheduler thread's
  // stack bounds for the return switch.
  AsanFinishSwitch(nullptr, &fibers_->sched_lo, &fibers_->sched_sz);
  p->fn();
  p->fn = nullptr;  // release captures while still on the fiber
  {
    std::unique_lock<std::mutex> lk(mu_);
    p->done = true;
    p->running = false;
    p->wake_time = kNever;
    --live_total_;
    if (!p->daemon && --live_nondaemon_ == 0) InitiateShutdownLocked();
    current_ = nullptr;
  }
  SwitchToScheduler(p, /*final_exit=*/true);
  std::abort();  // a finished fiber is never resumed
}

// ---------------------------------------------------------------------------

std::string Engine::SchedulerReport() {
  std::unique_lock<std::mutex> lk(mu_);
  char line[320];
  std::string out;
  std::size_t live_chans = 0;
  for (const auto& w : chans_) {
    if (!w.expired()) ++live_chans;
  }
  std::snprintf(
      line, sizeof(line),
      "engine: switches=%llu fast_resumes=%llu procs=%zu "
      "chans_live=%zu chans_created=%llu\n",
      static_cast<unsigned long long>(switch_count_),
      static_cast<unsigned long long>(fast_resume_count_), procs_.size(),
      live_chans, static_cast<unsigned long long>(chans_created_));
  out += line;
  const TimerWheel::Stats& ws = wheel_.stats();
  std::snprintf(line, sizeof(line),
                "engine: wheel arms=%llu cancels=%llu fires=%llu "
                "cascades=%llu pending=%zu\n",
                static_cast<unsigned long long>(ws.arms),
                static_cast<unsigned long long>(ws.cancels),
                static_cast<unsigned long long>(ws.fires),
                static_cast<unsigned long long>(ws.cascades), wheel_.size());
  out += line;
  base::SlabPool::Totals t;
  {
    std::lock_guard<std::mutex> slk(slab_mu_);
    t = item_slab_.totals();
  }
  const base::Slab::Stats& ps = proc_slab_.stats();
  std::snprintf(line, sizeof(line),
                "engine: item slab allocs=%llu frees=%llu high_water=%llu "
                "reserved=%llu fallback=%llu; proc slab allocs=%llu "
                "reserved=%llu\n",
                static_cast<unsigned long long>(t.allocs),
                static_cast<unsigned long long>(t.frees),
                static_cast<unsigned long long>(t.high_water),
                static_cast<unsigned long long>(t.bytes_reserved),
                static_cast<unsigned long long>(t.fallback_allocs),
                static_cast<unsigned long long>(ps.allocs),
                static_cast<unsigned long long>(ps.bytes_reserved));
  out += line;
  return out;
}

}  // namespace mermaid::sim
