// Runtime abstraction: processes, time, and channels.
//
// The entire Mermaid stack (network, DSM protocol, sync, applications) is
// written against this interface and blocks *only* by receiving on a Chan.
// Two bindings exist:
//   - sim::Engine   — deterministic discrete-event virtual time, every
//                     process a user-level fiber on one OS thread (primary;
//                     used by all benchmarks and most tests), and
//   - sim::RealTimeRuntime — plain OS threads and the wall clock, proving
//                     the protocol code is not simulation-bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "mermaid/base/time.h"

namespace mermaid::trace {
class Tracer;
}  // namespace mermaid::trace

namespace mermaid::sim {

// Options for the virtual-time Engine binding (sim/engine.h); other
// Runtime bindings ignore them. The engine has one scheduler (DESIGN.md
// §11), so the only setting left is how much stack each fiber gets.
struct EngineOptions {
  // Usable stack per simulated process. Each fiber maps this plus a guard
  // page; memory is committed on touch.
  std::size_t fiber_stack_bytes = 512 * 1024;

  // The defaults. perfbench's `--engine allon` and `--digest` name this,
  // from when the fast scheduler was opt-in.
  static EngineOptions AllOn() { return {}; }
};

// Type-erased channel core. Items are heap-allocated by the typed wrapper;
// the core owns them until popped and destroys leftovers with the deleter.
class ChanCore {
 public:
  virtual ~ChanCore() = default;

  // Enqueues `item` (ownership transferred) to become visible to receivers
  // at absolute time `deliver_time` (already >= now for the pushing side).
  virtual void Push(void* item, SimTime deliver_time) = 0;

  // Blocks the calling process until an item is deliverable or the runtime
  // is shutting down. Returns nullptr on shutdown. If `deadline` >= 0 and
  // reached first, returns nullptr with *timed_out = true.
  virtual void* Pop(SimTime deadline, bool* timed_out) = 0;

  // Non-blocking: pops a deliverable item if one exists.
  virtual void* TryPop() = 0;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  // Current time on this runtime's clock (ns).
  virtual SimTime Now() = 0;

  // Models `d` of computation by the calling process. In virtual time this
  // advances the clock without consuming wall time.
  virtual void Delay(SimDuration d) = 0;

  // Starts a new process. Daemon processes (server loops) do not keep the
  // simulation alive: when every non-daemon process has finished, all
  // channels drain as "shutdown" and daemons unwind.
  virtual void Spawn(std::string name, std::function<void()> fn,
                     bool daemon = false) = 0;

  // As Spawn, but tags the process with a scheduler affinity group (per-host
  // daemons and workers pass their host id). Purely a performance hint for
  // runtimes with per-group ready queues; the default forwards to Spawn and
  // scheduling semantics never depend on the group.
  virtual void SpawnOn(std::uint32_t group, std::string name,
                       std::function<void()> fn, bool daemon = false) {
    (void)group;
    Spawn(std::move(name), std::move(fn), daemon);
  }

  // Creates a channel core; `deleter` destroys unclaimed items. Channels
  // must not outlive the runtime that created them.
  virtual std::shared_ptr<ChanCore> MakeChan(
      std::function<void(void*)> deleter) = 0;

  // Allocation hooks for channel items (every Chan<T>::Send allocates one
  // record per message). The engine overrides these with a slab; the
  // defaults are plain operator new/delete.
  virtual void* AllocItem(std::size_t bytes) { return ::operator new(bytes); }
  virtual void FreeItem(void* p, std::size_t bytes) {
    (void)bytes;
    ::operator delete(p);
  }

  // Human-readable scheduler/allocator internals (switch counts, wheel and
  // slab stats). Folded into System::ReportStats; never part of
  // GatherStats, whose output must not depend on the runtime binding.
  virtual std::string SchedulerReport() { return {}; }

  // Attaches a protocol tracer so the runtime can record scheduling events
  // (process spawns). Optional: the default binding ignores it. The tracer
  // must outlive every Spawn call made after attaching it.
  virtual void SetTracer(trace::Tracer* /*tracer*/) {}
};

// Typed channel. Cheap to copy; all copies share the same queue.
template <typename T>
class Chan {
 public:
  Chan() = default;
  explicit Chan(Runtime& rt)
      : rt_(&rt), core_(rt.MakeChan([&rt](void* p) {
          static_cast<T*>(p)->~T();
          rt.FreeItem(p, sizeof(T));
        })) {}

  bool valid() const { return core_ != nullptr; }

  // Sends `v`, deliverable after `delay` of channel latency.
  void Send(T v, SimDuration delay = 0) {
    void* slot = rt_->AllocItem(sizeof(T));
    core_->Push(new (slot) T(std::move(v)), rt_->Now() + delay);
  }

  // Blocks until a message arrives; nullopt means the runtime is shutting
  // down and the receiving loop should unwind.
  std::optional<T> Recv() {
    bool timed_out = false;
    void* p = core_->Pop(/*deadline=*/-1, &timed_out);
    return Claim(p);
  }

  // As Recv, but gives up at `deadline` (absolute). nullopt + *timed_out
  // distinguishes timeout from shutdown.
  std::optional<T> RecvUntil(SimTime deadline, bool* timed_out) {
    void* p = core_->Pop(deadline, timed_out);
    return Claim(p);
  }

  std::optional<T> TryRecv() { return Claim(core_->TryPop()); }

 private:
  std::optional<T> Claim(void* p) {
    if (p == nullptr) return std::nullopt;
    T* item = static_cast<T*>(p);
    std::optional<T> out(std::move(*item));
    item->~T();
    rt_->FreeItem(item, sizeof(T));
    return out;
  }

  Runtime* rt_ = nullptr;
  std::shared_ptr<ChanCore> core_;
};

}  // namespace mermaid::sim
