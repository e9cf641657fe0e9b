#include "mermaid/dsm/host.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

#include "mermaid/base/check.h"
#include "mermaid/base/wire.h"

namespace mermaid::dsm {

namespace {

// Converts `extent` bytes of element slots in place. Slots are the
// power-of-two stride the allocator lays elements out on; for basic types
// stride == size and non-power-of-two types simply convert at the slot
// stride — one bulk call either way.
void ConvertSlots(const arch::TypeRegistry& reg, arch::TypeId type,
                  std::span<std::uint8_t> data, std::uint32_t extent,
                  const arch::ConvertContext& ctx) {
  const std::size_t stride = std::bit_ceil(reg.SizeOf(type));
  reg.ConvertStrided(type, data.first(extent), extent / stride, stride, ctx);
}

// Capped exponential backoff between whole fault-path retry rounds (the
// per-Call retransmits already jitter, so rounds need no extra randomness).
SimDuration FaultBackoff(const SystemConfig& cfg, int round) {
  SimDuration d = std::max<SimDuration>(1, cfg.fault_retry_backoff);
  const SimDuration cap = Seconds(2);
  for (int i = 1; i < round && d < cap; ++i) d *= 2;
  return std::min(d, cap);
}

}  // namespace

Host::Host(sim::Runtime& rt, net::Network& net, const SystemConfig& cfg,
           const arch::TypeRegistry& registry, net::HostId self,
           const arch::ArchProfile* profile, std::uint16_t num_hosts,
           std::uint32_t page_bytes, CoherenceReferee* referee,
           std::shared_ptr<const Directory::Placement> placement)
    : rt_(rt),
      net_(net),
      cfg_(cfg),
      registry_(registry),
      self_(self),
      profile_(profile),
      num_hosts_(num_hosts),
      page_bytes_(page_bytes),
      referee_(referee),
      endpoint_(rt, net, self, profile,
                [&cfg] {
                  net::Endpoint::Config c;
                  c.dedup_window = 8192;
                  c.carry_incarnation = cfg.crash_recovery;
                  return c;
                }()),
      mem_(cfg.region_bytes, 0),
      ptable_(static_cast<PageNum>(cfg.region_bytes / page_bytes)),
      dir_(cfg, self, std::move(placement)),
      migrate_chan_(rt),
      cpu_busy_until_(profile->cpu_count, 0) {
  // The base manager starts out owning every page it manages, holding the
  // zero-filled read copy (the manager entries themselves are seeded by the
  // Directory constructor).
  for (PageNum p = 0; p < ptable_.num_pages(); ++p) {
    if (dir_.BaseManagedHere(p)) {
      ptable_.Local(p).access = Access::kRead;
      ptable_.Local(p).owned = true;
      if (referee_ != nullptr) referee_->OnInstall(self_, p, 0, Access::kRead);
    }
  }
}

void Host::Start() {
  endpoint_.SetHandler(kOpReadReq, [this](net::RequestContext ctx) {
    if (!ctx.body().empty() && ctx.body()[0] == kToOwner) {
      HandleOwnerFetch(std::move(ctx), /*is_write=*/false);
    } else if (!ctx.body().empty() && ctx.body()[0] == kToHintedOwner) {
      HandleHintedFetch(std::move(ctx));
    } else {
      HandleTransferReq(std::move(ctx), /*is_write=*/false);
    }
  });
  endpoint_.SetHandler(kOpWriteReq, [this](net::RequestContext ctx) {
    if (!ctx.body().empty() && ctx.body()[0] == kToOwner) {
      HandleOwnerFetch(std::move(ctx), /*is_write=*/true);
    } else {
      HandleTransferReq(std::move(ctx), /*is_write=*/true);
    }
  });
  endpoint_.SetHandler(kOpInvalidate, [this](net::RequestContext ctx) {
    HandleInvalidate(std::move(ctx));
  });
  endpoint_.SetHandler(kOpConfirm, [this](net::RequestContext ctx) {
    HandleConfirm(std::move(ctx));
  });
  endpoint_.SetHandler(kOpConfirmProbe, [this](net::RequestContext ctx) {
    HandleConfirmProbe(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGrantReject, [this](net::RequestContext ctx) {
    HandleGrantReject(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGrantExtend, [this](net::RequestContext ctx) {
    HandleGrantExtend(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGroupFetch, [this](net::RequestContext ctx) {
    HandleGroupFetch(std::move(ctx));
  });
  endpoint_.SetHandler(kOpGroupConfirm, [this](net::RequestContext ctx) {
    HandleGroupConfirm(std::move(ctx));
  });
  endpoint_.SetHandler(kOpInvalidateBatch, [this](net::RequestContext ctx) {
    HandleInvalidateBatch(std::move(ctx));
  });
  endpoint_.SetHandler(kOpHintConfirm, [this](net::RequestContext ctx) {
    HandleHintConfirm(std::move(ctx));
  });
  endpoint_.SetHandler(kOpHintCovered, [this](net::RequestContext ctx) {
    HandleHintCovered(std::move(ctx));
  });
  endpoint_.SetHandler(kOpRecoveryQuery, [this](net::RequestContext ctx) {
    HandleRecoveryQuery(std::move(ctx));
  });
  endpoint_.SetHandler(kOpPageLost, [this](net::RequestContext ctx) {
    HandlePageLost(std::move(ctx));
  });
  endpoint_.SetHandler(kOpRecoveryDemote, [this](net::RequestContext ctx) {
    HandleRecoveryDemote(std::move(ctx));
  });
  endpoint_.SetHandler(kOpDiffFlush, [this](net::RequestContext ctx) {
    HandleDiffFlush(std::move(ctx));
  });
  endpoint_.SetHandler(kOpMgrMigrate, [this](net::RequestContext ctx) {
    HandleMgrMigrate(std::move(ctx));
  });
  if (cfg_.crash_recovery && (cfg_.probable_owner || dir_.dynamic())) {
    // A reincarnated peer lost every copy it ever owned — and, under the
    // dynamic directory, every manager entry it ever adopted. Drop the
    // hints and learned manager locations naming it the moment its new
    // incarnation is observed, and queue a reclaim for any base-managed
    // page whose forward points at the dead life. The endpoint invokes the
    // observer outside its own locks; state_mu_ is safe here.
    endpoint_.SetPeerIncObserver([this](net::HostId h, std::uint32_t) {
      std::size_t cleared = 0;
      std::size_t forgot = 0;
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (cfg_.probable_owner) cleared = ptable_.ClearHintsForHost(h);
        if (dir_.dynamic()) {
          forgot = dir_.ForgetManagersAt(h);
          std::vector<PageNum> stale;
          dir_.ForEachForward([&](PageNum p, const Directory::Forward& f) {
            if (f.to == h) stale.push_back(p);
          });
          for (PageNum p : stale) QueueReclaimLocked(p);
        }
      }
      if (cleared > 0) {
        stats_.Inc("dsm.hints_cleared_reincarnation",
                   static_cast<std::int64_t>(cleared));
      }
      if (forgot > 0) {
        stats_.Inc("dsm.mgr_learned_cleared_reincarnation",
                   static_cast<std::int64_t>(forgot));
      }
    });
  }
  endpoint_.Start();

  if (dir_.dynamic()) {
    rt_.SpawnOn(self_, "dsm-migrate-" + std::to_string(self_),
                [this] { MigrationDaemon(); },
                /*daemon=*/true);
  }

  // Confirm-loss janitor: probes requesters of long-busy transfers and
  // lease-revokes grants whose requester has been unreachable past the
  // grant lease. Blocks on a never-written channel so engine shutdown
  // unwinds it.
  rt_.SpawnOn(
      self_, "dsm-janitor-" + std::to_string(self_),
      [this] {
        sim::Chan<bool> never(rt_);
        for (;;) {
          bool timed_out = false;
          auto m = never.RecvUntil(rt_.Now() + cfg_.janitor_period,
                                   &timed_out);
          if (!m.has_value() && !timed_out) return;  // shutdown
          struct Probe {
            PageNum page;
            std::uint64_t op_id;
            net::HostId requester;
          };
          std::vector<Probe> probes;
          std::vector<std::pair<PageNum, std::uint64_t>> expired;
          {
            std::lock_guard<std::mutex> lk(state_mu_);
            if (recovering_) continue;  // entries are being rebuilt
            const SimTime now = rt_.Now();
            dir_.ForEachManaged([&](PageNum p, ManagerEntry& m2) {
              // Local requesters recover in their own fault path (they
              // revoke their grant directly on a failed owner fetch); the
              // janitor only chases remote ones.
              if (!m2.busy || m2.busy_requester == self_) return;
              if (now - m2.busy_since > cfg_.grant_lease) {
                expired.push_back({p, m2.busy_op_id});
              } else if (now - m2.busy_since > cfg_.confirm_probe_after) {
                probes.push_back({p, m2.busy_op_id, m2.busy_requester});
              }
            });
          }
          for (const auto& [page, op_id] : expired) {
            stats_.Inc("dsm.grant_lease_expired");
            ManagerRevoke(page, op_id);
          }
          for (const Probe& pr : probes) {
            base::WireWriter w;
            w.U32(pr.page);
            w.U64(pr.op_id);
            stats_.Inc("dsm.confirm_probes");
            endpoint_.Notify(pr.requester, kOpConfirmProbe,
                             std::move(w).Take());
          }
        }
      },
      /*daemon=*/true);
}

void Host::Compute(double units, bool floating_point) {
  const SimDuration per = floating_point ? profile_->float_work_cost
                                         : profile_->int_work_cost;
  const auto work = static_cast<SimDuration>(units * static_cast<double>(per));
  // Schedule the work onto this host's CPUs: with more runnable threads than
  // processors, compute time-shares (the Firefly has ~5 usable CPUs; the Sun
  // one). Pick the earliest-free CPU and queue behind it.
  SimTime start;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto best = std::min_element(cpu_busy_until_.begin(),
                                 cpu_busy_until_.end());
    start = std::max(rt_.Now(), *best);
    *best = start + work;
  }
  // On the real-time runtime the clock advances between the slot
  // computation and this call; the remaining delay can have elapsed already.
  rt_.Delay(std::max<SimDuration>(0, start + work - rt_.Now()));
}

LocalPageEntry Host::LocalEntrySnapshot(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  return ptable_.Local(p);
}

std::optional<net::HostId> Host::ApplyTypeSet(PageNum p, arch::TypeId type,
                                              std::uint32_t alloc_bytes) {
  std::lock_guard<std::mutex> lk(state_mu_);
  ManagerEntry* m = dir_.FindManager(p);
  if (m == nullptr) {
    // The page's management migrated away (dynamic directory): tell the
    // caller where, so the authoritative type reaches the live entry. With
    // neither entry nor forward a reclaim is in flight; the rebuild restores
    // the type from survivor claims, so there is nowhere to apply it now.
    const Directory::Forward* fwd = dir_.ForwardOf(p);
    if (fwd == nullptr) return std::nullopt;
    return fwd->to;
  }
  m->type = type;
  m->alloc_bytes = std::max(m->alloc_bytes, alloc_bytes);
  LocalPageEntry& e = ptable_.Local(p);
  if (e.access != Access::kNone) {
    e.type = type;
    e.alloc_bytes = m->alloc_bytes;
  }
  return std::nullopt;
}

std::uint64_t Host::ManagerGrantsTotal() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return mgr_grants_total_;
}

void Host::CountManagerLoad(std::uint64_t* busy, std::uint64_t* pending) {
  std::lock_guard<std::mutex> lk(state_mu_);
  dir_.ForEachManaged([&](PageNum, ManagerEntry& m) {
    if (m.busy || m.migrating) ++*busy;
    *pending += m.pending.size();
  });
}

net::Endpoint::CallOpts Host::DsmCallOpts() const {
  net::Endpoint::CallOpts opts;
  opts.timeout = cfg_.call_timeout;
  opts.max_attempts = cfg_.call_max_attempts;
  return opts;
}

// --------------------------------------------------------------------------
// Fault path
// --------------------------------------------------------------------------

PageNum Host::EnsureElementAccess(GlobalAddr addr, std::size_t size,
                                  Access needed) {
  const PageNum p = PageOf(addr);
  if ((static_cast<GlobalAddr>(p) + 1) * page_bytes_ - addr < size) {
    std::fprintf(stderr,
                 "note: typed access straddles a DSM page: %zu-byte element "
                 "at address %llu, page size %u\n",
                 size, static_cast<unsigned long long>(addr), page_bytes_);
    base::CheckFailed("element within one DSM page", __FILE__, __LINE__);
  }
  EnsureAccess(p, needed);
  return p;
}

void Host::EnsureAccess(PageNum p, Access needed) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access >= needed) return;
    }
    FaultGroup(p, needed);
  }
}

void Host::FaultGroup(PageNum p, Access needed) {
  const SimTime start = rt_.Now();
  stats_.Inc("dsm.vm_faults");
  // The user-level fault handler invocation + page table processing
  // (Table 1; the request send cost is modeled by the network).
  rt_.Delay(needed == Access::kWrite ? profile_->fault_cost_write
                                     : profile_->fault_cost_read);
  stats_.Sample(needed == Access::kWrite ? "dsm.fault_handling_w_ms"
                                         : "dsm.fault_handling_r_ms",
                ToMillis(rt_.Now() - start));

  // A host whose VM page spans several DSM pages must fill the whole VM
  // page ("multiple DSM pages will be moved to fill that (large) page").
  PageNum first = p;
  PageNum count = 1;
  if (profile_->vm_page_size > page_bytes_) {
    const PageNum per_vm = profile_->vm_page_size / page_bytes_;
    first = p - (p % per_vm);
    count = per_vm;
  }
  const PageNum total = ptable_.num_pages();
  const PageNum last = std::min<PageNum>(first + count, total);
  FaultTelemetry telem;
  if (cfg_.release_consistency && needed == Access::kWrite) {
    // Release consistency (§12): a write fault never invalidates the
    // copyset. Fault the page in for reading, then twin it and write
    // locally; the deferred writes flush to the home at the next release.
    for (PageNum q = first; q < last; ++q) {
      for (;;) {
        FaultOne(q, Access::kRead, &telem, nullptr);
        const RcTwinResult tr = RcTwinPage(q);
        if (tr == RcTwinResult::kOk) break;
        if (tr == RcTwinResult::kCapacity) RcFlushTwins();
        // kNoCopy (the read copy vanished before the twin) or capacity
        // flushed: refault and try again.
      }
    }
  } else if (cfg_.group_fetch && needed == Access::kRead && last - first > 1) {
    if (!FaultGroupFetch(first, last, &telem)) return;  // shutdown
  } else if (cfg_.coalesced_invalidation && needed == Access::kWrite &&
             last - first > 1) {
    std::vector<DeferredWrite> deferred;
    for (PageNum q = first; q < last; ++q) {
      FaultOne(q, needed, &telem, &deferred);
    }
    if (!FlushDeferredWrites(std::move(deferred), &telem)) return;
  } else {
    for (PageNum q = first; q < last; ++q) {
      FaultOne(q, needed, &telem, nullptr);
    }
  }
  stats_.Sample("dsm.fault_delay_ms", ToMillis(rt_.Now() - start));
  stats_.Hist("dsm.fault_service_ms", ToMillis(rt_.Now() - start));
  stats_.Hist("dsm.vm_fault_hops", static_cast<double>(telem.hops));
  stats_.Hist("dsm.vm_fault_rtts", static_cast<double>(telem.rtts));
}

void Host::FaultOne(PageNum p, Access needed, FaultTelemetry* telem,
                    std::vector<DeferredWrite>* deferred) {
  int retries = 0;
  for (;;) {
    bool start_fetch = false;
    sim::Chan<bool> waiter;
    std::uint32_t life;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access >= needed) return;
      // Captured fresh every round: a crash mid-round fences that round's
      // install, and the next iteration starts a clean post-crash fault.
      life = life_;
      if (fault_inflight_[p]) {
        waiter = sim::Chan<bool>(rt_);
        fault_waiters_[p].push_back(waiter);
      } else {
        fault_inflight_[p] = true;
        start_fetch = true;
      }
    }
    if (!start_fetch) {
      // Another thread is fetching this page; re-check when it finishes.
      if (!waiter.Recv().has_value()) return;  // shutdown
      continue;
    }

    const bool is_write = needed == Access::kWrite;
    stats_.Inc(is_write ? "dsm.write_faults" : "dsm.read_faults");
    const std::uint64_t fault_ev =
        TraceEv(trace::EventKind::kFaultStart, p, 0, 0, is_write ? 1 : 0);
    TraceBind(trace::FaultKey(self_, p), fault_ev);
    bool managed_here;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      managed_here = dir_.ManagedHere(p);
    }
    const FaultOutcome outcome =
        managed_here
            ? FaultViaLocalManager(p, is_write, telem, deferred, life)
            : FaultViaRemoteManager(p, is_write, telem, deferred, life);

    std::vector<sim::Chan<bool>> waiters;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      fault_inflight_[p] = false;
      waiters.swap(fault_waiters_[p]);
    }
    for (auto& w : waiters) w.Send(true);

    switch (outcome) {
      case FaultOutcome::kShutdown:
        return;
      case FaultOutcome::kRetry:
        ++retries;
        // No silent failure: a page that stays unreachable past the retry
        // budget is a deployment fault, not something to limp past.
        if (retries > cfg_.fault_retry_limit) {
          std::fprintf(stderr,
                       "host %u: fault on page %u (%s, managed %s) "
                       "exhausted %d retry rounds\n",
                       static_cast<unsigned>(self_), static_cast<unsigned>(p),
                       is_write ? "write" : "read",
                       dir_.BaseManagedHere(p) ? "here" : "remotely", retries);
          MERMAID_CHECK_MSG(
              false, "DSM fault path exhausted retries; page unreachable");
        }
        stats_.Inc("dsm.fault_retries");
        rt_.Delay(FaultBackoff(cfg_, retries));
        break;
      case FaultOutcome::kDone:
        TraceEv(trace::EventKind::kFaultEnd, p, 0, fault_ev,
                is_write ? 1 : 0);
        // A deferred (coalesced-invalidation) write grant leaves the page
        // read-only until FlushDeferredWrites finalizes it; re-checking
        // access here would refault forever.
        if (deferred != nullptr && is_write) return;
        retries = 0;  // loop re-checks access (it may have been invalidated)
        break;
    }
  }
}

Host::FaultOutcome Host::FaultViaLocalManager(
    PageNum p, bool is_write, FaultTelemetry* telem,
    std::vector<DeferredWrite>* deferred, std::uint32_t life) {
  ManagerGrant grant;
  bool granted_inline = false;
  sim::Chan<ManagerGrant> grant_chan;
  for (;;) {
    // Our own crash/rebuild window: wait it out instead of consuming the
    // retry budget — the outage plus the claim-gathering rebuild is not
    // bounded by fault_retry_limit rounds of backoff.
    bool wait_recovery;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      wait_recovery = recovering_;
    }
    if (!wait_recovery) break;
    rt_.Delay(Milliseconds(20));
  }
  bool ghost_owner = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) return FaultOutcome::kRetry;  // crashed again just now
    ManagerEntry* mp = dir_.FindManager(p);
    if (mp == nullptr) {
      // The entry migrated away between the dispatch check and this lock
      // (dynamic directory). The retry re-dispatches to the remote path.
      return FaultOutcome::kRetry;
    }
    ManagerEntry& m = *mp;
    const bool has_copy = ptable_.Local(p).access != Access::kNone;
    if (cfg_.crash_recovery && !m.busy && !m.migrating && m.owner == self_ &&
        !has_copy && !ptable_.Local(p).retained) {
      // The entry names this host as owner, but the copy is gone (a crash
      // of a copyset member left us promoted over a page we never held, or
      // our own amnesia outlived the record). Granting would produce a
      // dataless upgrade with nothing to upgrade; heal the entry first.
      ghost_owner = true;
    } else if (!m.busy && !m.migrating) {
      grant = BuildGrantLocked(p, self_, is_write, has_copy);
      granted_inline = true;
    } else {
      PendingTransfer t;
      t.is_write = is_write;
      t.has_copy = has_copy;
      t.requester = self_;
      grant_chan = sim::Chan<ManagerGrant>(rt_);
      t.local_grant = grant_chan;
      m.pending.push_back(std::move(t));
    }
  }
  if (ghost_owner) {
    stats_.Inc("dsm.owner_lost_detected");
    HandlePageLostLocal(p, 0, self_, /*drain=*/false);
    return FaultOutcome::kRetry;
  }
  if (!granted_inline) {
    auto g = grant_chan.Recv();
    if (!g.has_value()) return FaultOutcome::kShutdown;
    grant = *g;
    // op_id 0 is the crash sentinel: the queued transfer died with the
    // wiped manager state. Retry from scratch (with a fresh life).
    if (grant.op_id == 0) return FaultOutcome::kRetry;
  }

  FetchReply reply;
  if (grant.owner == self_) {
    // We already own the page (write upgrade): no data movement.
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = ptable_.Local(p);
    reply.op_id = grant.op_id;
    reply.data_version = e.version;
    reply.new_version = grant.new_version;
    reply.owner = self_;
    reply.type = e.type;
    reply.alloc_bytes = e.alloc_bytes;
    reply.to_invalidate = grant.to_invalidate;
    reply.has_data = false;
    reply.data_rep = arch::RepClassByte(*profile_);
    reply.mgr = self_;
  } else {
    // Fetch from the owner directly (the R/M -> O pattern of Table 4).
    base::WireWriter w;
    w.U8(kToOwner);
    w.U32(p);
    w.U64(grant.op_id);
    w.U64(grant.new_version);
    w.U8(grant.requester_has_copy ? 0 : 1);  // data_needed
    w.U16(grant.type);
    w.U32(grant.alloc_bytes);
    w.U16(static_cast<std::uint16_t>(grant.to_invalidate.size()));
    for (net::HostId h : grant.to_invalidate) w.U16(h);
    if (dir_.dynamic()) w.U16(self_);  // granting manager, echoed in reply
    auto resp = endpoint_.CallWithStatus(grant.owner,
                                         is_write ? kOpWriteReq : kOpReadReq,
                                         std::move(w).Take(),
                                         net::MsgKind::kControl,
                                         DsmCallOpts());
    if (resp.status == net::CallStatus::kShutdown) {
      return FaultOutcome::kShutdown;
    }
    if (resp.status == net::CallStatus::kTimedOut) {
      stats_.Inc("dsm.owner_fetch_timeouts");
      if (cfg_.crash_recovery && net_.HostDown(grant.owner, rt_.Now())) {
        // The owner did not merely time out, it died — and its copy with it
        // (crash-with-amnesia). Heal the entry now: promote a surviving
        // copy or apply the lost-page policy. This also clears the busy
        // grant, so no separate revoke.
        stats_.Inc("dsm.owner_lost_detected");
        HandlePageLostLocal(p, grant.op_id, grant.owner);
        return FaultOutcome::kRetry;
      }
      // The owner is unreachable: free our own grant so the entry does not
      // stay busy (other requesters may reach the owner), then retry.
      ManagerRevoke(p, grant.op_id);
      return FaultOutcome::kRetry;
    }
    reply = DecodeFetchReply(resp.body);
    if (telem != nullptr) telem->rtts += 1;
    if (reply.owner_lost) {
      // The owner of record restarted with amnesia; repair our own manager
      // entry (promote a surviving copy or apply the lost-page policy) and
      // refault.
      HandlePageLostLocal(p, grant.op_id, grant.owner);
      return FaultOutcome::kRetry;
    }
  }

  // Hop count: an upgrade/self-serve is message-free; a remote-owner fetch
  // is request + reply (the R -> O pattern; the manager leg was local).
  const std::int64_t hops = grant.owner == self_ ? 0 : 2;
  stats_.Hist("dsm.fault_hops", static_cast<double>(hops));
  if (telem != nullptr) telem->hops += hops;

  switch (CompleteTransfer(p, is_write, reply, deferred, life)) {
    case TransferResult::kShutdown:
      return FaultOutcome::kShutdown;
    case TransferResult::kFenced:
      // We crashed mid-transfer: the wiped manager state no longer knows
      // this grant, so there is nothing to commit or revoke.
      return FaultOutcome::kRetry;
    case TransferResult::kRejected:
      // Dataless grant, no copy to back it: free our own grant and refault
      // (the retry reports has_copy honestly, so data will be served).
      ManagerRevoke(p, grant.op_id);
      return FaultOutcome::kRetry;
    case TransferResult::kOk:
      break;
  }
  if (deferred != nullptr && is_write) {
    // Parked: the entry stays busy (shielding the page) until
    // FlushDeferredWrites finalizes and commits it.
    return FaultOutcome::kDone;
  }
  ManagerCommit(p, grant.op_id, self_, is_write);
  return FaultOutcome::kDone;
}

Host::FaultOutcome Host::FaultViaRemoteManager(
    PageNum p, bool is_write, FaultTelemetry* telem,
    std::vector<DeferredWrite>* deferred, std::uint32_t life) {
  // Under release consistency ownership never migrates (owner == manager ==
  // home), so the normal path is already one round trip and a hint buys
  // nothing — while a hint serve would bypass the manager's busy
  // serialization that keeps served versions and diff flushes ordered.
  if (cfg_.probable_owner && !is_write && !cfg_.release_consistency) {
    if (auto out = FaultViaHint(p, telem, life)) return *out;
  }
  base::WireWriter w;
  w.U8(kToManager);
  w.U32(p);
  net::HostId mgr;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    w.U8(ptable_.Local(p).access != Access::kNone ? 1 : 0);  // has_copy
    mgr = dir_.ManagerTarget(p);
    if (mgr == self_) {
      // We are the base manager but the entry migrated away and the learned
      // location was forgotten: chase our own forward pointer instead.
      const Directory::Forward* fwd = dir_.ForwardOf(p);
      if (fwd == nullptr) return FaultOutcome::kRetry;  // reclaim in flight
      mgr = fwd->to;
    }
  }
  if (dir_.dynamic()) w.U8(0);  // forwarding hops ridden so far
  auto resp = endpoint_.CallWithStatus(mgr, is_write ? kOpWriteReq : kOpReadReq,
                                       std::move(w).Take(),
                                       net::MsgKind::kControl, DsmCallOpts());
  if (resp.status == net::CallStatus::kShutdown) return FaultOutcome::kShutdown;
  if (resp.status == net::CallStatus::kTimedOut) {
    // The manager (or the owner it forwarded to) is unreachable. Our reply
    // channel is closed now, so a replayed grant can never be consumed; if
    // one was issued, the manager's probe/lease machinery reclaims it.
    stats_.Inc("dsm.manager_call_timeouts");
    if (dir_.dynamic()) {
      // A learned (migrated) location that stopped answering may have died;
      // fall back to the base manager next round.
      std::lock_guard<std::mutex> lk(state_mu_);
      dir_.ForgetManager(p);
    }
    return FaultOutcome::kRetry;
  }
  FetchReply reply = DecodeFetchReply(resp.body);
  if (telem != nullptr) telem->rtts += 1;
  if (reply.mgr_redirect) {
    // The addressed host no longer manages the page (stale location or an
    // exhausted forwarding chain); re-route to its suggestion.
    stats_.Inc("dsm.mgr_redirects");
    std::lock_guard<std::mutex> lk(state_mu_);
    dir_.ForgetManager(p);
    if (reply.owner != mgr && reply.owner < num_hosts_) {
      dir_.LearnManager(p, reply.owner, IncOf(reply.owner));
    }
    return FaultOutcome::kRetry;
  }
  // Under the dynamic directory the granting manager identifies itself in
  // the reply (the request may have been forwarded along migration
  // pointers); everything manager-directed below goes there.
  if (dir_.dynamic()) mgr = reply.mgr;
  if (reply.owner_lost) {
    // The manager forwarded us to an owner that has since restarted with
    // amnesia. Report the loss so the manager repairs its entry (promotes a
    // surviving copy or applies the lost-page policy), then refault.
    stats_.Inc("dsm.owner_lost_observed");
    base::WireWriter lw;
    lw.U32(p);
    lw.U64(reply.op_id);
    lw.U16(reply.owner);
    endpoint_.CallWithStatus(mgr, kOpPageLost, std::move(lw).Take(),
                             net::MsgKind::kControl, DsmCallOpts());
    return FaultOutcome::kRetry;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (fenced_.count({p, reply.op_id}) > 0) {
      // We disowned this grant when a confirm-probe caught us without it;
      // the manager revoked it, so this late reply must not be installed.
      stats_.Inc("dsm.fenced_replies");
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery && life != life_) {
      // We crashed while this reply was in flight. The wipe already cleared
      // inflight_ops_; registering now would plant a phantom op in the fresh
      // incarnation that answers confirm-probes "still working" forever and
      // gets adopted as busy by manager rebuilds. Leave the grant to the
      // manager's probe/lease reclaim.
      stats_.Inc("dsm.fenced_replies");
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery &&
        (reply.op_id >> 48) < endpoint_.PeerIncarnation(mgr)) {
      // The granting manager has reincarnated since issuing this grant: its
      // rebuilt map knows nothing of the op, so installing would create a
      // holder invisible to the reconstruction. Refault against the rebuilt
      // manager instead.
      stats_.Inc("dsm.dead_epoch_grants");
      return FaultOutcome::kRetry;
    }
    inflight_ops_[{p, reply.op_id}] = InflightOp{is_write, reply.new_version};
    if (cfg_.probable_owner) {
      const net::HostId learned = is_write ? self_ : reply.owner;
      ptable_.SetHint(p, learned, IncOf(learned));
    }
    if (dir_.dynamic()) dir_.LearnManager(p, mgr, IncOf(mgr));
  }
  // Hop count: served by the manager itself (or an upgrade) is request +
  // reply; a forward to the owner adds the third leg (R -> M -> O -> R).
  const std::int64_t hops =
      (reply.owner == mgr || reply.owner == self_) ? 2 : 3;
  stats_.Hist("dsm.fault_hops", static_cast<double>(hops));
  if (telem != nullptr) telem->hops += hops;
  switch (CompleteTransfer(p, is_write, reply, deferred, life)) {
    case TransferResult::kShutdown: {
      std::lock_guard<std::mutex> lk(state_mu_);
      inflight_ops_.erase({p, reply.op_id});
      return FaultOutcome::kShutdown;
    }
    case TransferResult::kFenced:
      // We crashed mid-transfer (inflight_ops_ wiped with the rest) or a
      // recovery demote fenced this grant; confirming would make the manager
      // record a copy we do not hold.
      return FaultOutcome::kRetry;
    case TransferResult::kRejected: {
      // Dataless grant, no copy to back it: hand the grant back so the
      // manager unbusies now instead of at lease expiry, then refault (the
      // retry reports has_copy honestly, so data will be served). A lost
      // notify costs only the lease wait; the janitor probe reclaims it.
      base::WireWriter rw;
      rw.U32(p);
      rw.U64(reply.op_id);
      rw.U8(1);  // no_copy: the disclaim is a live "nothing here" statement
      endpoint_.Notify(mgr, kOpGrantReject, std::move(rw).Take());
      return FaultOutcome::kRetry;
    }
    case TransferResult::kOk:
      break;
  }
  if (deferred != nullptr && is_write) {
    // Parked: confirm only after FlushDeferredWrites finalizes. The op stays
    // in inflight_ops_ so a confirm-probe answers "still working".
    return FaultOutcome::kDone;
  }
  RecordCompleted(p, reply.op_id, mgr, is_write);

  base::WireWriter cw;
  cw.U32(p);
  cw.U64(reply.op_id);
  cw.U16(self_);
  cw.U8(is_write ? 1 : 0);
  endpoint_.Notify(mgr, kOpConfirm, std::move(cw).Take());
  return FaultOutcome::kDone;
}

std::optional<Host::FaultOutcome> Host::FaultViaHint(PageNum p,
                                                     FaultTelemetry* telem,
                                                     std::uint32_t life) {
  net::HostId hinted;
  bool has_copy;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    hinted = ptable_.HintOf(p);
    if (hinted == PageTable::kNoHint || hinted == self_) return std::nullopt;
    if (cfg_.crash_recovery &&
        endpoint_.PeerIncarnation(hinted) > ptable_.HintIncOf(p)) {
      // The hinted owner has reincarnated since we learned the hint: its
      // amnesiac copy is gone, so chasing it wastes a round trip.
      ptable_.SetHint(p, PageTable::kNoHint);
      stats_.Inc("dsm.hint_fenced_reincarnation");
      return std::nullopt;
    }
    has_copy = ptable_.Local(p).access != Access::kNone;
    // Open the poison window: an invalidation arriving while the hinted
    // fetch is in flight flips this flag and the reply is discarded.
    hint_poison_[p] = false;
  }
  stats_.Inc("dsm.hint_fetches");
  const std::uint64_t hint_ev =
      TraceEv(trace::EventKind::kHintFetch, p, 0,
              TraceParent(trace::FaultKey(self_, p)), hinted);
  TraceBind(trace::HintKey(self_, p), hint_ev);
  base::WireWriter w;
  w.U8(kToHintedOwner);
  w.U32(p);
  w.U8(has_copy ? 1 : 0);
  auto resp = endpoint_.CallWithStatus(hinted, kOpReadReq, std::move(w).Take(),
                                       net::MsgKind::kControl, DsmCallOpts());
  bool poisoned = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (auto it = hint_poison_.find(p); it != hint_poison_.end()) {
      poisoned = it->second;
      hint_poison_.erase(it);
    }
  }
  if (resp.status == net::CallStatus::kShutdown) {
    return FaultOutcome::kShutdown;
  }
  if (telem != nullptr) telem->rtts += 1;
  if (resp.status == net::CallStatus::kTimedOut) {
    // The hinted host is unreachable: forget the hint and take the normal
    // manager path this round.
    stats_.Inc("dsm.hint_timeouts");
    std::lock_guard<std::mutex> lk(state_mu_);
    if (ptable_.HintOf(p) == hinted) ptable_.SetHint(p, PageTable::kNoHint);
    return std::nullopt;
  }
  FetchReply reply = DecodeFetchReply(resp.body);
  if (reply.mgr_redirect) {
    // The hinted host bounced us toward the page's manager (dynamic
    // directory, forwarding chain exhausted); re-route and refault.
    stats_.Inc("dsm.mgr_redirects");
    std::lock_guard<std::mutex> lk(state_mu_);
    dir_.ForgetManager(p);
    if (reply.owner < num_hosts_ && reply.owner != self_) {
      dir_.LearnManager(p, reply.owner, IncOf(reply.owner));
    }
    return FaultOutcome::kRetry;
  }
  // The manager every manager-directed message below goes to: under the
  // dynamic directory a real grant names its granting manager; a direct
  // hint serve (op_id 0) has no manager leg, so fall back to the routed
  // location.
  net::HostId mgr;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (dir_.dynamic() && reply.op_id != 0) {
      mgr = reply.mgr;
    } else {
      mgr = dir_.ManagerTarget(p);
      if (mgr == self_) {
        const Directory::Forward* fwd = dir_.ForwardOf(p);
        mgr = fwd != nullptr ? fwd->to : self_;
      }
    }
  }
  if (reply.op_id == 0) {
    // Hint hit: the hinted owner served directly (2 hops, no manager leg).
    if (poisoned) {
      // An invalidation crossed the serve in flight; the image may predate
      // the writer's commit. Discard and refault.
      stats_.Inc("dsm.hint_poisoned");
      return FaultOutcome::kRetry;
    }
    stats_.Inc("dsm.hint_hits");
    switch (CompleteTransfer(p, /*is_write=*/false, reply, nullptr, life)) {
      case TransferResult::kShutdown:
        return FaultOutcome::kShutdown;
      case TransferResult::kFenced:
      case TransferResult::kRejected:  // unreachable: direct serves carry data
        return FaultOutcome::kRetry;
      case TransferResult::kOk:
        break;
    }
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      ptable_.SetHint(p, reply.owner, IncOf(reply.owner));
    }
    // Tell the manager we hold a copy so future writers invalidate us; the
    // owner keeps us in hinted_pending_ until the manager confirms coverage.
    // (Skipping the notify is safe — the owner's hinted_pending_ keeps us an
    // invalidation target until a covering confirm lands somewhere.)
    if (mgr != self_) {
      base::WireWriter cw;
      cw.U32(p);
      cw.U64(reply.data_version);
      endpoint_.Notify(mgr, kOpHintConfirm, std::move(cw).Take());
    }
    stats_.Hist("dsm.fault_hops", 2.0);
    if (telem != nullptr) telem->hops += 2;
    return FaultOutcome::kDone;
  }
  // Stale hint: the hinted host re-forwarded through the manager and a real
  // grant came back. Handle it exactly like a manager-path reply.
  stats_.Inc("dsm.hint_stale_replies");
  if (reply.owner_lost) {
    stats_.Inc("dsm.owner_lost_observed");
    base::WireWriter lw;
    lw.U32(p);
    lw.U64(reply.op_id);
    lw.U16(reply.owner);
    endpoint_.CallWithStatus(mgr, kOpPageLost, std::move(lw).Take(),
                             net::MsgKind::kControl, DsmCallOpts());
    return FaultOutcome::kRetry;
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (fenced_.count({p, reply.op_id}) > 0) {
      stats_.Inc("dsm.fenced_replies");
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery && life != life_) {
      // Crashed mid-flight: see FaultViaRemoteManager — registering would
      // leak a phantom inflight op into the fresh incarnation.
      stats_.Inc("dsm.fenced_replies");
      return FaultOutcome::kRetry;
    }
    if (cfg_.crash_recovery &&
        (reply.op_id >> 48) < endpoint_.PeerIncarnation(mgr)) {
      stats_.Inc("dsm.dead_epoch_grants");
      return FaultOutcome::kRetry;
    }
    inflight_ops_[{p, reply.op_id}] =
        InflightOp{/*is_write=*/false, reply.new_version};
    ptable_.SetHint(p, reply.owner, IncOf(reply.owner));
    if (dir_.dynamic()) dir_.LearnManager(p, mgr, IncOf(mgr));
  }
  switch (CompleteTransfer(p, /*is_write=*/false, reply, nullptr, life)) {
    case TransferResult::kShutdown: {
      std::lock_guard<std::mutex> lk(state_mu_);
      inflight_ops_.erase({p, reply.op_id});
      return FaultOutcome::kShutdown;
    }
    case TransferResult::kFenced:
      return FaultOutcome::kRetry;
    case TransferResult::kRejected: {
      base::WireWriter rw;
      rw.U32(p);
      rw.U64(reply.op_id);
      rw.U8(1);  // no_copy
      endpoint_.Notify(mgr, kOpGrantReject, std::move(rw).Take());
      return FaultOutcome::kRetry;
    }
    case TransferResult::kOk:
      break;
  }
  RecordCompleted(p, reply.op_id, mgr, /*is_write=*/false);
  base::WireWriter cw;
  cw.U32(p);
  cw.U64(reply.op_id);
  cw.U16(self_);
  cw.U8(0);
  endpoint_.Notify(mgr, kOpConfirm, std::move(cw).Take());
  // Requester -> hinted -> manager [-> owner] -> requester.
  const std::int64_t hops =
      (reply.owner == mgr || reply.owner == self_) ? 3 : 4;
  stats_.Hist("dsm.fault_hops", static_cast<double>(hops));
  if (telem != nullptr) telem->hops += hops;
  return FaultOutcome::kDone;
}

bool Host::FaultGroupFetch(PageNum first, PageNum last,
                           FaultTelemetry* telem) {
  // Claim pass: take the local fault-coalescing slot for every page this
  // batch will fetch. Pages another thread is already fetching, and
  // locally-managed pages whose entry is busy, are left to the per-page
  // fallback at the end.
  std::vector<PageNum> claimed;
  std::map<net::HostId, std::vector<GroupReqEntry>> calls;
  struct LocalGrant {
    PageNum page = 0;
    ManagerGrant grant;
    std::uint64_t data_version = 0;
  };
  std::vector<LocalGrant> local_grants;
  std::uint32_t life;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
    for (PageNum p = first; p < last; ++p) {
      if (ptable_.Local(p).access >= Access::kRead) continue;
      if (fault_inflight_[p]) continue;
      if (dir_.ManagedHere(p)) {
        ManagerEntry* me = dir_.FindManager(p);
        if (recovering_ || me->busy || me->migrating) continue;
        fault_inflight_[p] = true;
        claimed.push_back(p);
        const std::uint64_t fev =
            TraceEv(trace::EventKind::kFaultStart, p, 0, 0, 0);
        TraceBind(trace::FaultKey(self_, p), fev);
        stats_.Inc("dsm.read_faults");
        const bool has_copy = ptable_.Local(p).access != Access::kNone;
        ManagerGrant g = BuildGrantLocked(p, self_, /*is_write=*/false,
                                          has_copy);
        if (g.owner == self_) {
          local_grants.push_back({p, g, ptable_.Local(p).version});
        } else {
          GroupReqEntry e;
          e.role = kToOwner;
          e.page = p;
          e.op_id = g.op_id;
          e.new_version = g.new_version;
          e.data_needed = !g.requester_has_copy;
          e.type = g.type;
          e.alloc_bytes = g.alloc_bytes;
          e.mgr = self_;
          calls[g.owner].push_back(e);
        }
      } else {
        // Route through the directory; pages mid-reclaim (base placement
        // with no forward) are left to the per-page fallback, which retries
        // until the entry is rebuilt.
        net::HostId tgt = dir_.ManagerTarget(p);
        if (tgt == self_) {
          const Directory::Forward* fwd = dir_.ForwardOf(p);
          if (fwd == nullptr) continue;
          tgt = fwd->to;
        }
        fault_inflight_[p] = true;
        claimed.push_back(p);
        const std::uint64_t fev =
            TraceEv(trace::EventKind::kFaultStart, p, 0, 0, 0);
        TraceBind(trace::FaultKey(self_, p), fev);
        stats_.Inc("dsm.read_faults");
        GroupReqEntry e;
        e.role = kToManager;
        e.page = p;
        e.has_copy = ptable_.Local(p).access != Access::kNone;
        calls[tgt].push_back(e);
      }
    }
  }
  const auto release_claims = [&] {
    std::vector<sim::Chan<bool>> waiters;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      for (PageNum p : claimed) {
        fault_inflight_[p] = false;
        auto& ws = fault_waiters_[p];
        waiters.insert(waiters.end(), ws.begin(), ws.end());
        ws.clear();
      }
    }
    for (auto& w : waiters) w.Send(true);
  };

  // Pre-granted pages this host already owns (re-animation of a retained
  // copy): message-free, like the local-manager upgrade path.
  for (const LocalGrant& lg : local_grants) {
    FetchReply r;
    r.op_id = lg.grant.op_id;
    r.data_version = lg.data_version;
    r.new_version = lg.grant.new_version;
    r.owner = self_;
    r.type = lg.grant.type;
    r.alloc_bytes = lg.grant.alloc_bytes;
    r.has_data = false;
    r.data_rep = arch::RepClassByte(*profile_);
    switch (CompleteTransfer(lg.page, /*is_write=*/false, r, nullptr, life)) {
      case TransferResult::kShutdown:
        release_claims();
        return false;
      case TransferResult::kFenced:
        continue;  // the per-page fallback refaults it post-crash
      case TransferResult::kRejected:
        // Ghost self-ownership (no copy, no retained image): free the
        // grant; the per-page fallback heals the entry and refaults.
        ManagerRevoke(lg.page, lg.grant.op_id);
        continue;
      case TransferResult::kOk:
        break;
    }
    ManagerCommit(lg.page, lg.grant.op_id, self_, /*is_write=*/false);
  }

  // Call rounds: one kOpGroupFetch per destination; redirects (a remote
  // manager naming a third-party owner) regroup by owner for the next
  // round. Depth is bounded — owners never redirect — so two rounds is the
  // worst case; the loop guard is belt and braces.
  std::map<net::HostId, std::vector<std::pair<PageNum, std::uint64_t>>>
      confirms;
  const auto reject_grants = [&](const std::vector<GroupReqEntry>& entries) {
    for (const GroupReqEntry& e : entries) {
      if (e.role != kToOwner) continue;
      const net::HostId gm =
          dir_.dynamic() ? e.mgr : dir_.BaseManagerOf(e.page);
      if (gm == self_) {
        ManagerRevoke(e.page, e.op_id);
      } else {
        base::WireWriter w;
        w.U32(e.page);
        w.U64(e.op_id);
        w.U8(0);  // abandonment only: says nothing about our copy state
        endpoint_.Notify(gm, kOpGrantReject, std::move(w).Take());
      }
    }
  };
  auto current = std::move(calls);
  for (int depth = 0; depth < 3 && !current.empty(); ++depth) {
    std::map<net::HostId, std::vector<GroupReqEntry>> next;
    for (auto& [dst, entries] : current) {
      stats_.Inc("dsm.group_fetches");
      TraceEv(trace::EventKind::kGroupFetch, entries.front().page, 0,
              TraceParent(trace::FaultKey(self_, entries.front().page)),
              static_cast<std::int64_t>(entries.size()), dst);
      auto resp = endpoint_.CallWithStatus(dst, kOpGroupFetch,
                                           EncodeGroupRequest(entries),
                                           net::MsgKind::kControl,
                                           DsmCallOpts());
      if (resp.status == net::CallStatus::kShutdown) {
        release_claims();
        return false;
      }
      if (telem != nullptr) telem->rtts += 1;
      if (resp.status == net::CallStatus::kTimedOut) {
        // Free any pre-granted entries so their pages do not stay busy at
        // the managers; every page of this call falls back to FaultOne.
        stats_.Inc("dsm.group_fetch_timeouts");
        reject_grants(entries);
        continue;
      }
      auto es = DecodeGroupReply(resp.body);
      // Whole-batch hop count: one request leg (plus the manager-to-owner
      // forward when any grant came from a third host) and one reply leg.
      bool forwarded = false;
      for (const GroupReplyEntry& e : es) {
        if (e.status == 1 && e.fr.owner != dst && e.fr.owner != self_) {
          forwarded = true;
        }
      }
      const std::int64_t hops = forwarded ? 3 : 2;
      stats_.Hist("dsm.fault_hops", static_cast<double>(hops));
      if (telem != nullptr) telem->hops += hops;
      for (GroupReplyEntry& e : es) {
        if (e.status == 0) {
          stats_.Inc("dsm.group_fetch_busy");  // falls back to FaultOne
          continue;
        }
        if (e.status == 2) {
          next[e.redirect_owner].push_back(e.redirect);
          continue;
        }
        if (e.status == 3) {
          // The batched owner fetch hit an amnesiac restart: report the
          // loss to the page's manager so it repairs the entry; the page
          // itself is swept up by the per-page fallback below.
          stats_.Inc("dsm.owner_lost_observed");
          const net::HostId gm = dir_.dynamic()
                                     ? e.redirect.mgr
                                     : dir_.BaseManagerOf(e.page);
          if (gm == self_) {
            HandlePageLostLocal(e.page, e.redirect.op_id, e.redirect_owner);
          } else {
            base::WireWriter lw;
            lw.U32(e.page);
            lw.U64(e.redirect.op_id);
            lw.U16(e.redirect_owner);
            endpoint_.Notify(gm, kOpPageLost, std::move(lw).Take());
          }
          continue;
        }
        const net::HostId grant_mgr =
            dir_.dynamic() ? e.fr.mgr : dir_.BaseManagerOf(e.page);
        const bool local_mgr = grant_mgr == self_;
        if (!local_mgr) {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (fenced_.count({e.page, e.fr.op_id}) > 0) {
            stats_.Inc("dsm.fenced_replies");
            continue;
          }
          if (cfg_.crash_recovery && life != life_) {
            // Crashed mid-batch: registering would leak a phantom inflight
            // op into the fresh incarnation (see FaultViaRemoteManager).
            stats_.Inc("dsm.fenced_replies");
            continue;
          }
          if (cfg_.crash_recovery &&
              (e.fr.op_id >> 48) < endpoint_.PeerIncarnation(grant_mgr)) {
            // Grant from a dead incarnation of the page's manager: the
            // rebuilt map does not know the op; installing would create a
            // holder invisible to the reconstruction.
            stats_.Inc("dsm.dead_epoch_grants");
            continue;
          }
          inflight_ops_[{e.page, e.fr.op_id}] =
              InflightOp{/*is_write=*/false, e.fr.new_version};
          if (cfg_.probable_owner) {
            ptable_.SetHint(e.page, e.fr.owner, IncOf(e.fr.owner));
          }
          if (dir_.dynamic()) {
            dir_.LearnManager(e.page, grant_mgr, IncOf(grant_mgr));
          }
        }
        switch (CompleteTransfer(e.page, /*is_write=*/false, e.fr, nullptr,
                                 life)) {
          case TransferResult::kShutdown:
            release_claims();
            return false;
          case TransferResult::kFenced:
            continue;  // swept up post-crash by the per-page fallback
          case TransferResult::kRejected: {
            // Free the stale dataless grant; the per-page fallback refaults
            // this page with an honest has_copy claim.
            if (local_mgr) {
              ManagerRevoke(e.page, e.fr.op_id);
            } else {
              base::WireWriter rw;
              rw.U32(e.page);
              rw.U64(e.fr.op_id);
              rw.U8(1);  // no_copy
              endpoint_.Notify(grant_mgr, kOpGrantReject,
                               std::move(rw).Take());
            }
            continue;
          }
          case TransferResult::kOk:
            break;
        }
        if (local_mgr) {
          ManagerCommit(e.page, e.fr.op_id, self_, /*is_write=*/false);
        } else {
          RecordCompleted(e.page, e.fr.op_id, grant_mgr, /*is_write=*/false);
          confirms[grant_mgr].push_back({e.page, e.fr.op_id});
        }
      }
    }
    current = std::move(next);
  }
  // Unconsumed redirects past the depth guard (cannot happen with a
  // well-formed peer): free their grants so the pages do not wedge.
  for (const auto& [dst, entries] : current) reject_grants(entries);

  // One batched confirm per remote manager covers every page it granted.
  for (const auto& [mgr, ops] : confirms) {
    base::WireWriter w;
    w.U16(static_cast<std::uint16_t>(ops.size()));
    for (const auto& [page, op_id] : ops) {
      w.U32(page);
      w.U64(op_id);
      w.U8(0);  // read
    }
    endpoint_.Notify(mgr, kOpGroupConfirm, std::move(w).Take());
  }
  for (PageNum p : claimed) {
    TraceEv(trace::EventKind::kFaultEnd, p, 0,
            TraceParent(trace::FaultKey(self_, p)), 0);
  }
  release_claims();
  // Per-page fallback sweeps up everything the batch could not serve (busy
  // entries, timeouts, fenced grants, pages other threads were fetching).
  for (PageNum p = first; p < last; ++p) {
    FaultOne(p, Access::kRead, telem, nullptr);
  }
  return true;
}

Host::TransferResult Host::CompleteTransfer(
    PageNum p, bool is_write, const FetchReply& reply,
    std::vector<DeferredWrite>* deferred, std::uint32_t life) {
  // Every locked section re-checks `life`: the blocking points in between
  // (conversion, install cost, invalidation rounds) are exactly where a
  // crash can interpose, and a zombie install after the wipe would put
  // state on this host that the fresh incarnation cannot account for.
  const auto fenced = [&] {
    stats_.Inc("dsm.fenced_transfers");
    return TransferResult::kFenced;
  };
  const GlobalAddr page_base = static_cast<GlobalAddr>(p) * page_bytes_;
  if (reply.has_data) {
    const std::size_t data_size = reply.data.size();
    {
      // Copy #2 of the data path: wire buffer -> requester memory. Writing
      // into mem_ before the entry is installed is safe: access is still
      // kNone and fault coalescing keeps local threads out of this page.
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
        return fenced();
      }
      MERMAID_CHECK(data_size <= page_bytes_);
      reply.data.CopyTo(
          std::span<std::uint8_t>(mem_.data() + page_base, data_size));
    }
    // Convert in place in mem_ (still uninstalled, so nothing can read it).
    // The codec runs here only when the payload arrived in a foreign
    // representation; when the owner pre-converted, just the calibrated
    // delay is charged — and a cache-hit image costs nothing at all.
    if (cfg_.convert_enabled &&
        !(reply.sender_converted && reply.from_cache)) {
      const bool foreign = reply.data_rep != arch::RepClassByte(*profile_);
      if (foreign || reply.sender_converted) {
        ConvertIncoming(
            p, std::span<std::uint8_t>(mem_.data() + page_base, data_size),
            reply.type, net_.ProfileOf(reply.owner), /*run_codec=*/foreign);
      }
    }
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
        return fenced();
      }
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      e.owned = false;
      e.version = reply.data_version;
      e.type = reply.type;
      e.alloc_bytes = reply.alloc_bytes;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, reply.data_version, Access::kRead);
      }
    }
    stats_.Inc("dsm.pages_in");
    stats_.Inc("dsm.bytes_in", static_cast<std::int64_t>(data_size));
  } else if (!is_write) {
    // A read grant without data means we hold a valid copy — possibly one we
    // relinquished in a transfer the manager has since revoked (the retained
    // bytes are still the current version; re-animate them).
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
      return fenced();
    }
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone && e.retained) {
      e.access = Access::kRead;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, e.version, Access::kRead);
      }
    }
    if (e.access < Access::kRead) {
      // The grant trusted a has_copy claim that a crash or a revoked write
      // made stale: there is nothing here to re-animate. Discard the grant
      // (the caller frees it at the manager) and refault with the truth.
      MERMAID_CHECK_MSG(cfg_.crash_recovery,
                        "read grant without data to a host without a copy");
      FenceOpLocked(p, reply.op_id);
      inflight_ops_.erase({p, reply.op_id});
      stats_.Inc("dsm.stale_dataless_grants");
      return TransferResult::kRejected;
    }
  } else {
    // A write grant without data is an ownership upgrade. The copy being
    // upgraded may be one we relinquished in a transfer the manager has
    // since revoked (we are still the owner of record); the retained bytes
    // are the current version, so re-animate them like the read case.
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
      return fenced();
    }
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone && e.retained) {
      e.access = Access::kRead;
      e.retained = false;
      if (referee_ != nullptr) {
        referee_->OnInstall(self_, p, e.version, Access::kRead);
      }
    }
    if (e.access == Access::kNone) {
      // Same stale-claim discard as the read case: an upgrade-in-place with
      // no copy in place cannot be installed.
      MERMAID_CHECK_MSG(cfg_.crash_recovery,
                        "write upgrade granted to a host without a copy");
      FenceOpLocked(p, reply.op_id);
      inflight_ops_.erase({p, reply.op_id});
      stats_.Inc("dsm.stale_dataless_grants");
      return TransferResult::kRejected;
    }
    stats_.Inc("dsm.upgrades");
  }
  rt_.Delay(profile_->page_install_cost);
  const std::uint64_t install_ev =
      TraceEv(trace::EventKind::kInstall, p, reply.op_id,
              TraceParent(trace::OpKey(p, reply.op_id)), is_write ? 1 : 0,
              reply.has_data ? 1 : 0);
  TraceBind(trace::OpKey(p, reply.op_id), install_ev);

  if (is_write) {
    if (deferred != nullptr) {
      // Coalesced invalidation: park the grant. The page was installed
      // read-only above; FlushDeferredWrites runs the batched invalidation
      // and finalizes every page of the VM fault together.
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
          return fenced();
        }
        MERMAID_CHECK(ptable_.Local(p).access != Access::kNone);
      }
      const net::HostId manager =
          dir_.dynamic() ? reply.mgr : dir_.BaseManagerOf(p);
      deferred->push_back({p, reply, manager, life});
      stats_.Inc("dsm.deferred_writes");
      return TransferResult::kOk;
    }
    std::vector<net::HostId> to_invalidate = reply.to_invalidate;
    {
      // Readers this host served via the hint fast path may be missing from
      // the manager's copyset (their covering confirm raced this upgrade);
      // they hold copies and must be invalidated too.
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_) return fenced();
      if (auto it = hinted_pending_.find(p); it != hinted_pending_.end()) {
        for (net::HostId h : it->second) {
          if (std::find(to_invalidate.begin(), to_invalidate.end(), h) ==
              to_invalidate.end()) {
            to_invalidate.push_back(h);
          }
        }
      }
    }
    if (!InvalidateCopies(p, to_invalidate, reply.op_id, install_ev)) {
      return TransferResult::kShutdown;
    }
    if (!FinalizeWrite(p, reply, life)) return fenced();
  }
  return TransferResult::kOk;
}

bool Host::FinalizeWrite(PageNum p, const FetchReply& reply,
                         std::uint32_t life) {
  std::lock_guard<std::mutex> lk(state_mu_);
  if (life != life_ || fenced_.count({p, reply.op_id}) != 0) {
    stats_.Inc("dsm.fenced_transfers");
    return false;
  }
  LocalPageEntry& e = ptable_.Local(p);
  e.access = Access::kWrite;
  e.owned = true;
  e.version = reply.new_version;
  e.type = reply.type;
  e.alloc_bytes = std::max(e.alloc_bytes, reply.alloc_bytes);
  e.retained = false;
  // The version just bumped: any converted images of the old version can
  // never be served again.
  DropConvertCacheLocked(p);
  // Every hint-served reader was just invalidated with the rest of the
  // copyset; the finalize also closes the hint-serve refusal window.
  hinted_pending_.erase(p);
  write_pending_.erase(p);
  if (referee_ != nullptr) {
    referee_->OnWriteGrant(self_, p, reply.new_version);
  }
  return true;
}

bool Host::InvalidateCopies(PageNum p,
                            const std::vector<net::HostId>& hosts,
                            std::uint64_t op_id, std::uint64_t parent_ev) {
  std::vector<net::HostId> targets;
  for (net::HostId h : hosts) {
    if (h != self_) targets.push_back(h);
  }
  if (targets.empty()) return true;
  stats_.Hist("dsm.invalidate_fanout",
              static_cast<double>(targets.size()));
  base::WireWriter w;
  w.U32(p);
  const auto body = std::move(w).Take();
  // Write access must not be granted until every copy is gone: re-multicast
  // to the targets that did not ack, round after round, and abort loudly if
  // a copy holder stays unreachable past the retry budget.
  for (int round = 0; !targets.empty(); ++round) {
    if (cfg_.crash_recovery) {
      // A down host's copies died with it (crash-with-amnesia): skip it
      // rather than burning the retry budget against silence.
      std::erase_if(targets,
                    [&](net::HostId h) { return net_.HostDown(h, rt_.Now()); });
      if (targets.empty()) break;
    }
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "invalidation multicast exhausted retries");
    if (round > 0) {
      stats_.Inc("dsm.invalidation_retries");
      rt_.Delay(FaultBackoff(cfg_, round));
    }
    stats_.Inc("dsm.invalidations_sent",
               static_cast<std::int64_t>(targets.size()));
    const std::uint64_t inv_ev =
        TraceEv(trace::EventKind::kInvalidateSend, p, op_id, parent_ev,
                static_cast<std::int64_t>(targets.size()), round);
    TraceBind(trace::InvKey(p), inv_ev);
    auto acks = endpoint_.MultiCallWithStatus(targets, kOpInvalidate, body,
                                              net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return false;
    if (acks.status == net::CallStatus::kOk) return true;
    std::vector<net::HostId> unacked;
    for (std::size_t i : acks.timed_out) unacked.push_back(targets[i]);
    targets = std::move(unacked);
  }
  return true;
}

bool Host::FlushDeferredWrites(std::vector<DeferredWrite> deferred,
                               FaultTelemetry* telem) {
  (void)telem;  // invalidation rounds count in neither hops nor rtts, so the
                // coalesced and per-page paths stay comparable
  if (deferred.empty()) return true;
  std::vector<PageNum> pages;
  std::set<net::HostId> union_targets;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    // Entries parked before a crash are fenced: the wiped state cannot back
    // their grants, so they are dropped without invalidating or confirming.
    std::erase_if(deferred, [&](const DeferredWrite& d) {
      if (d.life == life_) return false;
      stats_.Inc("dsm.fenced_transfers");
      return true;
    });
    for (const DeferredWrite& d : deferred) {
      pages.push_back(d.page);
      // Refuse hint serves until the finalize: the target union below is
      // fixed now, so no new reader may acquire a copy past it.
      write_pending_.insert(d.page);
      for (net::HostId h : d.reply.to_invalidate) {
        if (h != self_) union_targets.insert(h);
      }
      if (auto it = hinted_pending_.find(d.page);
          it != hinted_pending_.end()) {
        for (net::HostId h : it->second) {
          if (h != self_) union_targets.insert(h);
        }
      }
    }
  }
  // One batched invalidation round per copyset host, single aggregated ack
  // each. The union is safe: every page in it is being write-acquired, so
  // over-invalidating a host that only held some of the pages is the normal
  // write-invalidate outcome for those pages and a no-op for the rest.
  if (!InvalidateBatchCall(
          pages, {union_targets.begin(), union_targets.end()})) {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (PageNum p : pages) write_pending_.erase(p);
    return false;  // shutdown
  }
  // Every copy is gone: finalize and confirm each page. The confirms were
  // deferred with the invalidations, so every manager entry is still busy
  // and no competing transfer has touched these pages in between.
  std::map<net::HostId, std::vector<const DeferredWrite*>> remote_confirms;
  for (const DeferredWrite& d : deferred) {
    if (!FinalizeWrite(d.page, d.reply, d.life)) continue;  // crash-fenced
    if (d.manager == self_) {
      ManagerCommit(d.page, d.reply.op_id, self_, /*is_write=*/true);
    } else {
      RecordCompleted(d.page, d.reply.op_id, d.manager, /*is_write=*/true);
      remote_confirms[d.manager].push_back(&d);
    }
  }
  for (const auto& [mgr, ds] : remote_confirms) {
    base::WireWriter w;
    w.U16(static_cast<std::uint16_t>(ds.size()));
    for (const DeferredWrite* d : ds) {
      w.U32(d->page);
      w.U64(d->reply.op_id);
      w.U8(1);  // is_write
    }
    endpoint_.Notify(mgr, kOpGroupConfirm, std::move(w).Take());
  }
  return true;
}

bool Host::InvalidateBatchCall(const std::vector<PageNum>& pages,
                               std::vector<net::HostId> targets) {
  if (pages.empty() || targets.empty()) return true;
  stats_.Hist("dsm.invalidate_fanout", static_cast<double>(targets.size()));
  base::WireWriter w;
  w.U16(static_cast<std::uint16_t>(pages.size()));
  for (PageNum p : pages) w.U32(p);
  const auto body = std::move(w).Take();
  for (int round = 0; !targets.empty(); ++round) {
    if (cfg_.crash_recovery) {
      // Same as InvalidateCopies: a crashed host holds no copies.
      std::erase_if(targets,
                    [&](net::HostId h) { return net_.HostDown(h, rt_.Now()); });
      if (targets.empty()) break;
    }
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "batched invalidation exhausted retries");
    if (round > 0) {
      stats_.Inc("dsm.invalidation_retries");
      rt_.Delay(FaultBackoff(cfg_, round));
    }
    stats_.Inc("dsm.batch_invalidations_sent",
               static_cast<std::int64_t>(targets.size()));
    const std::uint64_t inv_ev =
        TraceEv(trace::EventKind::kInvalidateBatch, pages.front(), 0, 0,
                static_cast<std::int64_t>(targets.size()),
                static_cast<std::int64_t>(pages.size()));
    for (PageNum p : pages) TraceBind(trace::InvKey(p), inv_ev);
    auto acks = endpoint_.MultiCallWithStatus(targets, kOpInvalidateBatch,
                                              body, net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return false;
    if (acks.status == net::CallStatus::kOk) return true;
    std::vector<net::HostId> unacked;
    for (std::size_t i : acks.timed_out) unacked.push_back(targets[i]);
    targets = std::move(unacked);
  }
  return true;
}

// --------------------------------------------------------------------------
// Manager role
// --------------------------------------------------------------------------

ManagerGrant Host::BuildGrantLocked(PageNum p, net::HostId requester,
                                    bool is_write, bool has_copy) {
  ManagerEntry& m = dir_.Manager(p);
  MERMAID_CHECK(!m.busy);
  MERMAID_CHECK(!m.migrating);
  ++mgr_grants_total_;
  ManagerGrant g;
  g.owner = m.owner;
  // §2.3: "the number of necessary conversions can be kept to a minimum by
  // transferring a page from a host of the same type whenever possible" —
  // for read faults, serve from a same-representation copyset member
  // instead of a differently-represented owner (ownership is unchanged).
  if (!is_write && cfg_.prefer_same_type_source &&
      m.copyset.count(requester) == 0 &&
      !net_.ProfileOf(m.owner).SameRepresentation(
          net_.ProfileOf(requester))) {
    for (net::HostId h : m.copyset) {
      if (net_.ProfileOf(h).SameRepresentation(net_.ProfileOf(requester))) {
        g.owner = h;  // data source only; m.owner keeps ownership
        stats_.Inc("dsm.same_type_source");
        break;
      }
    }
  }
  // The incarnation epoch in the high bits keeps op ids from a previous
  // life of this manager disjoint from the fresh counter (which restarts at
  // zero with the amnesia wipe). Epoch 0 with crash recovery off, so
  // knobs-off wire images are unchanged.
  ++op_counter_;
  g.op_id = (static_cast<std::uint64_t>(op_epoch_) << 48) | op_counter_;
  g.new_version = is_write ? m.version + 1 : m.version;
  // Both must agree: after a revoked write grant the copyset can hold
  // phantom members whose copies the vanished writer already invalidated,
  // so the requester's own claim gates the "no data needed" shortcut.
  g.requester_has_copy = has_copy && m.copyset.count(requester) > 0;
  g.type = m.type;
  g.alloc_bytes = m.alloc_bytes;
  if (is_write) {
    for (net::HostId h : m.copyset) {
      if (h != requester && h != m.owner) g.to_invalidate.push_back(h);
    }
  }
  m.busy = true;
  m.busy_op_id = g.op_id;
  m.busy_requester = requester;
  m.busy_is_write = is_write;
  m.busy_new_version = g.new_version;
  m.busy_since = rt_.Now();
  const std::uint64_t grant_ev =
      TraceEv(trace::EventKind::kManagerGrant, p, g.op_id,
              TraceParent(trace::FaultKey(requester, p)), is_write ? 1 : 0,
              g.owner);
  TraceBind(trace::OpKey(p, g.op_id), grant_ev);
  return g;
}

void Host::ManagerIssue(PageNum p, PendingTransfer t) {
  if (cfg_.crash_recovery) {
    net::HostId owner;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      owner = dir_.Manager(p).owner;
    }
    // Note: `t.has_copy` is NOT trusted here. It was serialized when the
    // request was created, and a request can spend many retransmit rounds
    // in a lossy network while recoveries rebuild the very state it
    // describes — healing on a stale "no copy" claim has destroyed live
    // pages. An amnesiac owner-of-record instead receives the dataless
    // upgrade, rejects it (kOpGrantReject carries current truth), and the
    // reject handler heals the entry.
    const bool owner_down = owner != self_ && owner != t.requester &&
                            net_.HostDown(owner, rt_.Now());
    if (owner_down) {
      // The owner's copy died with it: heal the entry before granting, or
      // the requester would chase a corpse until its retry budget ran out.
      // op_id 0 = no grant to unbusy; drain=false because the transfer
      // being issued here is already in hand.
      stats_.Inc("dsm.owner_lost_detected");
      HandlePageLostLocal(p, 0, owner, /*drain=*/false);
    }
  }
  ManagerGrant grant;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    grant = BuildGrantLocked(p, t.requester, t.is_write, t.has_copy);
  }
  if (!t.remote.has_value()) {
    t.local_grant.Send(grant);
    return;
  }

  // Remote requester.
  const net::RequestContext& ctx = *t.remote;
  std::uint64_t data_version;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    data_version = dir_.Manager(p).version;
  }
  if (grant.owner == t.requester) {
    // Ownership upgrade: requester already owns the page; no data leg.
    FetchReply r;
    r.op_id = grant.op_id;
    r.data_version = data_version;
    r.new_version = grant.new_version;
    r.owner = grant.owner;
    r.mgr = self_;
    r.type = grant.type;
    r.alloc_bytes = grant.alloc_bytes;
    r.to_invalidate = grant.to_invalidate;
    r.has_data = false;
    r.data_rep = arch::RepClassByte(net_.ProfileOf(grant.owner));
    ctx.Reply(EncodeFetchReply(r));
    return;
  }
  if (grant.owner == self_) {
    // The manager host owns the page: serve directly (R -> M/O of Table 4).
    rt_.Delay(profile_->server_op_cost);
    auto reply = EncodeServeReply(p, t.requester, t.is_write,
                                  !grant.requester_has_copy, grant.op_id,
                                  data_version, grant.new_version, grant.type,
                                  grant.alloc_bytes, grant.to_invalidate,
                                  self_);
    ctx.Reply(std::move(reply), net::MsgKind::kData);
    return;
  }
  // Forward to the owner (R -> M -> O of Table 4).
  const std::uint64_t fwd_ev =
      TraceEv(trace::EventKind::kManagerForward, p, grant.op_id,
              TraceParent(trace::OpKey(p, grant.op_id)), grant.owner,
              t.requester);
  TraceBind(trace::OpKey(p, grant.op_id), fwd_ev);
  base::WireWriter w;
  w.U8(kToOwner);
  w.U32(p);
  w.U64(grant.op_id);
  w.U64(grant.new_version);
  w.U8(grant.requester_has_copy ? 0 : 1);
  w.U16(grant.type);
  w.U32(grant.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(grant.to_invalidate.size()));
  for (net::HostId h : grant.to_invalidate) w.U16(h);
  if (dir_.dynamic()) w.U16(self_);  // granting manager, echoed in the reply
  ctx.Forward(grant.owner, std::move(w).Take());
}

void Host::ManagerCommit(PageNum p, std::uint64_t op_id,
                         net::HostId requester, bool is_write) {
  bool migrate = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* mp = dir_.FindManager(p);
    if (mp == nullptr || !mp->busy || mp->busy_op_id != op_id) {
      stats_.Inc("dsm.stale_confirms");
      return;  // duplicate confirm of an already-committed transfer
    }
    ManagerEntry& m = *mp;
    MERMAID_CHECK(m.busy_requester == requester);
    if (is_write) {
      m.owner = requester;
      m.copyset.clear();
      m.copyset.insert(requester);
      m.version = m.busy_new_version;
    } else {
      m.copyset.insert(requester);
    }
    m.busy = false;
    // Dynamic directory: management follows the writers. A committed remote
    // write means the new owner will likely keep writing; hand the entry to
    // it (always in pure dynamic mode, vote-gated in hot-page mode). The
    // migrating flag freezes the entry — no grant may issue between this
    // decision and the daemon's handshake — and RC is excluded: diff homes
    // are placement-static.
    if (is_write && requester != self_ && dir_.dynamic() &&
        !cfg_.release_consistency && !recovering_ && !m.migrating &&
        ShouldMigrateLocked(m, requester)) {
      m.migrating = true;
      migrate = true;
    }
  }
  TraceEv(trace::EventKind::kManagerCommit, p, op_id,
          TraceParent(trace::OpKey(p, op_id)), is_write ? 1 : 0, requester);
  if (migrate) {
    migrate_chan_.Send(MigrateJob{p, requester, /*reclaim=*/false});
    return;  // the entry is frozen; the daemon drains after the handshake
  }
  ManagerDrain(p);
}

bool Host::ShouldMigrateLocked(ManagerEntry& m, net::HostId requester) {
  if (!cfg_.hot_page_migration) return true;  // pure dynamic: every writer
  // Boyer–Moore majority vote over the page's remote-write commits: a
  // migration is only worth its handshake when one writer dominates.
  ++m.hot_total;
  if (m.hot_score == 0) {
    m.hot_candidate = requester;
    m.hot_score = 1;
  } else if (m.hot_candidate == requester) {
    ++m.hot_score;
  } else {
    --m.hot_score;
  }
  if (m.hot_candidate == requester &&
      m.hot_score >= static_cast<int>(cfg_.hot_page_threshold)) {
    m.hot_score = 0;  // restart the vote under the next manager
    m.hot_total = 0;
    return true;
  }
  return false;
}

void Host::ManagerDrain(PageNum p) {
  PendingTransfer next;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* m = dir_.FindManager(p);
    if (m == nullptr || m->busy || m->migrating || m->pending.empty()) {
      return;
    }
    next = std::move(m->pending.front());
    m->pending.pop_front();
  }
  ManagerIssue(p, std::move(next));
}

void Host::ManagerRevoke(PageNum p, std::uint64_t op_id) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* m = dir_.FindManager(p);
    if (m == nullptr || !m->busy || m->busy_op_id != op_id) {
      return;  // committed, re-granted, or migrated away
    }
    m->busy = false;  // owner/copyset/version deliberately unchanged
    stats_.Inc("dsm.grants_revoked");
  }
  TraceEv(trace::EventKind::kManagerRevoke, p, op_id,
          TraceParent(trace::OpKey(p, op_id)));
  ManagerDrain(p);
}

// --------------------------------------------------------------------------
// Owner role
// --------------------------------------------------------------------------

net::Body Host::EncodeServeReply(
    PageNum p, net::HostId requester, bool is_write, bool data_needed,
    std::uint64_t op_id, std::uint64_t data_version,
    std::uint64_t new_version, arch::TypeId type, std::uint32_t alloc_bytes,
    const std::vector<net::HostId>& to_invalidate, net::HostId mgr) {
  FetchReply r;
  r.op_id = op_id;
  r.data_version = data_version;
  r.new_version = new_version;
  r.owner = self_;
  r.mgr = mgr;
  r.type = type;
  r.alloc_bytes = alloc_bytes;
  r.to_invalidate = to_invalidate;
  r.has_data = data_needed;
  r.data_rep = arch::RepClassByte(*profile_);

  const GlobalAddr page_base = static_cast<GlobalAddr>(p) * page_bytes_;
  const arch::ArchProfile& req_prof = net_.ProfileOf(requester);
  const std::uint8_t req_rep = arch::RepClassByte(req_prof);
  // With the cache enabled the owner converts outgoing pages itself; the
  // receiver then skips the codec (and, for cache hits, the modeled delay).
  const bool want_convert = data_needed && cfg_.convert_enabled &&
                            cfg_.convert_cache &&
                            !profile_->SameRepresentation(req_prof);

  // Phase 1 (locked): validate, read the serve parameters, look up the
  // conversion cache, and apply the downgrade/relinquish state transition.
  std::uint32_t extent = 0;
  std::uint64_t version = 0;
  bool invalidated = false;
  bool downgraded = false;
  bool cache_hit = false;
  base::Buffer image;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    LocalPageEntry& e = ptable_.Local(p);
    // A retained entry (relinquished in a since-revoked transfer) is a legal
    // data source: the bytes are still the current version.
    MERMAID_CHECK_MSG(e.access != Access::kNone || e.retained,
                      "owner asked to serve a page it does not hold");
    version = e.version;
    if (data_needed) {
      extent = cfg_.partial_page_transfer ? std::min(alloc_bytes, page_bytes_)
                                          : page_bytes_;
      if (want_convert) {
        const ConvertCacheKey key{p, version, req_rep};
        auto it = convert_cache_.find(key);
        if (it != convert_cache_.end() && it->second.size() == extent) {
          image = it->second;
          cache_hit = true;
          // LRU promotion: a hit moves the key to the back of the eviction
          // order, so hot pages survive capacity pressure from one-shot
          // conversions.
          auto pos = std::find(convert_cache_order_.begin(),
                               convert_cache_order_.end(), key);
          if (pos != convert_cache_order_.end()) {
            convert_cache_order_.erase(pos);
            convert_cache_order_.push_back(key);
          }
        }
      }
    }
    if (is_write) {
      // Cover hint-served readers the manager may not know about yet: the
      // new writer must invalidate their copies too. The pending set itself
      // survives (only a covering confirm or our own write finalize clears
      // it) in case this grant is revoked and the write never happens.
      if (auto it = hinted_pending_.find(p); it != hinted_pending_.end()) {
        for (net::HostId h : it->second) {
          if (h != requester &&
              std::find(r.to_invalidate.begin(), r.to_invalidate.end(), h) ==
                  r.to_invalidate.end()) {
            r.to_invalidate.push_back(h);
          }
        }
      }
      // Relinquish: the new owner takes over. Keep the bytes servable in
      // case the manager revokes this grant and names us the source again.
      invalidated = e.access != Access::kNone;
      e.access = Access::kNone;
      e.owned = false;
      e.retained = true;
    } else if (e.access == Access::kWrite &&
               !(cfg_.release_consistency && rc_home_dirty_.count(p) != 0)) {
      // Downgrade to read-only; we stay the owner. (A home-dirty page under
      // release consistency keeps its write access: the reader legally gets
      // the mid-critical-section bytes at the committed version, and the
      // home's deferred writes commit at its own release.)
      downgraded = true;
      e.access = Access::kRead;
    }
  }
  if (referee_ != nullptr) {
    if (is_write && invalidated) {
      referee_->OnInvalidate(self_, p);
    } else if (downgraded) {
      referee_->OnDowngrade(self_, p);
    }
  }
  const std::uint64_t serve_ev =
      TraceEv(trace::EventKind::kOwnerServe, p, op_id,
              TraceParent(trace::OpKey(p, op_id)), extent,
              cache_hit ? 1 : 0);
  TraceBind(trace::OpKey(p, op_id), serve_ev);

  // Phase 2 (unlocked): copy and convert the page image. Safe outside
  // state_mu_: the manager entry stays busy until the requester confirms,
  // so no competing transfer can change these bytes underneath us.
  if (data_needed) {
    if (cache_hit) {
      r.data_rep = req_rep;
      r.sender_converted = true;
      r.from_cache = true;
      stats_.Inc("dsm.convert_cache_hits");
    } else {
      // Copy #1 of the data path: owner memory -> wire buffer.
      std::vector<std::uint8_t> img(mem_.begin() + page_base,
                                    mem_.begin() + page_base + extent);
      base::BulkCopyRecord(img.size());
      if (want_convert) {
        arch::ConvertStats cstats;
        arch::ConvertContext cctx;
        cctx.src = profile_;
        cctx.dst = &req_prof;
        cctx.stats = &cstats;
        ConvertSlots(registry_, type, img, extent, cctx);
        if (cstats.total_lossy() > 0) {
          stats_.Inc("dsm.convert_lossy", cstats.total_lossy());
        }
        r.data_rep = req_rep;
        r.sender_converted = true;
        stats_.Inc("dsm.convert_cache_misses");
      }
      image = base::Buffer(std::move(img));
      if (want_convert && !is_write) {
        // Cache the converted image for repeat readers of this version.
        std::lock_guard<std::mutex> lk(state_mu_);
        const ConvertCacheKey key{p, version, req_rep};
        if (convert_cache_.emplace(key, image).second) {
          convert_cache_order_.push_back(key);
          while (convert_cache_order_.size() > cfg_.convert_cache_capacity) {
            convert_cache_.erase(convert_cache_order_.front());
            convert_cache_order_.pop_front();
            stats_.Inc("dsm.convert_cache_evictions");
          }
        } else {
          convert_cache_[key] = image;  // refresh (extent grew)
        }
      }
    }
    r.data = base::BufferChain(image);
  }

  stats_.Inc("dsm.pages_served");
  if (data_needed) {
    stats_.Inc("dsm.bytes_out", static_cast<std::int64_t>(r.data.size()));
  }
  return EncodeFetchReply(r);
}

// --------------------------------------------------------------------------
// Handlers (rx daemon; never block)
// --------------------------------------------------------------------------

void Host::HandleTransferReq(net::RequestContext ctx, bool is_write) {
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  const bool has_copy = r.U8() != 0;
  std::uint8_t hops = 0;
  if (dir_.dynamic()) hops = r.U8();
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);

  PendingTransfer t;
  t.is_write = is_write;
  t.has_copy = has_copy;
  t.requester = ctx.origin();
  bool issue_now = false;
  net::HostId fwd_to = self_;
  net::HostId redirect_to = self_;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // Mid-reconstruction the manager map is untrustworthy. Drop the
      // request (no reply): the requester's call times out and retries,
      // landing after recovery finishes.
      stats_.Inc("dsm.recovery_dropped_reqs");
      return;
    }
    ManagerEntry* m = dir_.FindManager(p);
    if (m == nullptr) {
      // Dynamic mode only (a fixed/sharded misroute is malformed above):
      // the entry migrated away. Chase our forward pointer while the hop
      // budget lasts; past it, bounce the requester a redirect so the chain
      // cannot grow without limit.
      const Directory::Forward* fwd = dir_.ForwardOf(p);
      if (fwd != nullptr && cfg_.crash_recovery &&
          net_.HostDown(fwd->to, rt_.Now())) {
        // The manager this page migrated to died with its state: reclaim
        // the entry here (we are the forward holder) and let the requester
        // retry into the rebuilt entry.
        QueueReclaimLocked(p);
        return;
      }
      if (fwd != nullptr) {
        if (hops < cfg_.directory_forward_limit) {
          fwd_to = fwd->to;
        } else {
          redirect_to = fwd->to;
        }
      } else if (dir_.BaseManagedHere(p)) {
        // Base placement with neither entry nor forward: a reclaim is (or
        // is now) in flight. Drop; the requester retries into the rebuilt
        // entry.
        QueueReclaimLocked(p);
        return;
      } else {
        // Misrouted (stale learned manager): point the requester at the
        // base placement, which either manages the page or holds the start
        // of the live forward chain.
        redirect_to = dir_.BaseManagerOf(p);
      }
    } else {
      if (m->busy || m->migrating) {
        t.remote = std::move(ctx);
        m->pending.push_back(std::move(t));
        return;
      }
      t.remote = std::move(ctx);
      issue_now = true;
    }
  }
  if (issue_now) {
    ManagerIssue(p, std::move(t));
    return;
  }
  if (fwd_to != self_) {
    stats_.Inc("dsm.mgr_forwards");
    base::WireWriter w;
    w.U8(kToManager);
    w.U32(p);
    w.U8(has_copy ? 1 : 0);
    w.U8(static_cast<std::uint8_t>(hops + 1));
    ctx.Forward(fwd_to, std::move(w).Take());
    return;
  }
  MERMAID_CHECK(redirect_to != self_);
  stats_.Inc("dsm.mgr_redirects_sent");
  FetchReply rr;
  rr.mgr_redirect = true;
  rr.owner = redirect_to;  // suggestion, not an owner
  rr.mgr = self_;
  ctx.Reply(EncodeFetchReply(rr));
}

void Host::HandleOwnerFetch(net::RequestContext ctx, bool is_write) {
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const std::uint64_t new_version = r.U64();
  const bool data_needed = r.U8() != 0;
  const arch::TypeId type = r.U16();
  const std::uint32_t alloc_bytes = r.U32();
  const std::uint16_t n_inv = r.U16();
  std::vector<net::HostId> to_invalidate(n_inv);
  for (auto& h : to_invalidate) h = r.U16();
  net::HostId mgr = 0;
  if (dir_.dynamic()) mgr = r.U16();  // granting manager, echoed back
  if (!r.ok()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  std::uint64_t data_version = 0;
  bool lost = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = ptable_.Local(p);
    if (cfg_.crash_recovery && e.access == Access::kNone && !e.retained) {
      // Amnesia: the grant names this host as owner, but the copy died with
      // a previous life. EncodeServeReply would abort on the missing copy;
      // a minimal owner_lost reply sends the requester to the manager to
      // report the loss instead.
      lost = true;
    } else {
      data_version = e.version;
    }
  }
  if (lost) {
    stats_.Inc("dsm.owner_lost_detected");
    TraceEv(trace::EventKind::kOwnerLost, p, op_id,
            TraceParent(trace::OpKey(p, op_id)), self_);
    FetchReply fr;
    fr.op_id = op_id;
    fr.owner = self_;
    fr.mgr = mgr;
    fr.owner_lost = true;
    ctx.Reply(EncodeFetchReply(fr));
    return;
  }
  auto reply = EncodeServeReply(p, ctx.origin(), is_write, data_needed, op_id,
                                data_version, new_version, type, alloc_bytes,
                                to_invalidate, mgr);
  ctx.Reply(std::move(reply),
            data_needed ? net::MsgKind::kData : net::MsgKind::kControl);
}

void Host::HandleHintedFetch(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  r.U8();  // role
  const PageNum p = r.U32();
  const bool has_copy = r.U8() != 0;
  if (!r.ok() || p >= ptable_.num_pages()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  bool servable = false;
  std::uint64_t version = 0;
  arch::TypeId type = 0;
  std::uint32_t alloc_bytes = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    LocalPageEntry& e = ptable_.Local(p);
    // Serve only from a stable owned copy: not while this host is itself
    // faulting the page, and not inside a coalesced write's finalize window
    // (the batched invalidation's target union is already fixed).
    if (e.owned && e.access != Access::kNone && !fault_inflight_[p] &&
        write_pending_.count(p) == 0) {
      servable = true;
      version = e.version;
      type = e.type;
      alloc_bytes = e.alloc_bytes;
      // Track the reader until the manager confirms it joined the copyset:
      // any write serve in between carries it as an invalidation target.
      hinted_pending_[p].insert(ctx.origin());
    }
  }
  if (servable) {
    stats_.Inc("dsm.hint_serves");
    const std::uint64_t ev =
        TraceEv(trace::EventKind::kHintServe, p, 0,
                TraceParent(trace::HintKey(ctx.origin(), p)), alloc_bytes);
    TraceBind(trace::HintKey(ctx.origin(), p), ev);
    // op_id 0 marks a hint-served (manager-less) reply; version doubles as
    // data and "new" version since nothing changes.
    auto reply = EncodeServeReply(p, ctx.origin(), /*is_write=*/false,
                                  /*data_needed=*/!has_copy, /*op_id=*/0,
                                  version, version, type, alloc_bytes, {},
                                  /*mgr=*/0);
    ctx.Reply(std::move(reply), net::MsgKind::kData);
    return;
  }
  // Stale hint: pass the request down the ownership chain — into our own
  // manager queue when we manage the page, else forwarded to the manager as
  // a normal transfer request. Either way the requester pays exactly one
  // extra hop and the reply carries a real (non-zero) op id.
  stats_.Inc("dsm.hint_stale");
  const std::uint64_t stale_ev =
      TraceEv(trace::EventKind::kHintStale, p, 0,
              TraceParent(trace::HintKey(ctx.origin(), p)),
              dir_.BaseManagerOf(p));
  // Bind under the requester's fault key so the manager's grant chains
  // through the stale-forward event.
  TraceBind(trace::FaultKey(ctx.origin(), p), stale_ev);
  PendingTransfer t;
  t.is_write = false;
  t.has_copy = has_copy;
  t.requester = ctx.origin();
  bool issue_now = false;
  net::HostId fwd_tgt = self_;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* m = dir_.FindManager(p);
    if (m != nullptr) {
      if (recovering_) {
        // Same as HandleTransferReq: no reply while rebuilding, the
        // requester times out and retries.
        stats_.Inc("dsm.recovery_dropped_reqs");
        return;
      }
      t.remote = std::move(ctx);
      if (m->busy || m->migrating) {
        m->pending.push_back(std::move(t));
        return;
      }
      issue_now = true;
    } else {
      fwd_tgt = dir_.ManagerTarget(p);
      if (fwd_tgt == self_) {
        const Directory::Forward* fwd = dir_.ForwardOf(p);
        // No forward either: a reclaim is in flight; drop so the
        // requester's call times out and retries the rebuilt entry.
        fwd_tgt = fwd != nullptr ? fwd->to : self_;
      }
    }
  }
  if (issue_now) {
    ManagerIssue(p, std::move(t));
    return;
  }
  if (fwd_tgt == self_) return;
  base::WireWriter w;
  w.U8(kToManager);
  w.U32(p);
  w.U8(has_copy ? 1 : 0);
  if (dir_.dynamic()) w.U8(0);  // forwarding-hop budget starts fresh
  ctx.Forward(fwd_tgt, std::move(w).Take());
}

void Host::HandleHintConfirm(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t version = r.U64();
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  bool covered = false;
  net::HostId owner = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* mp = dir_.FindManager(p);
    if (mp == nullptr) {
      // Dynamic: the entry migrated away. Chase the forward once; a dropped
      // confirm is safe either way (the owner's hinted_pending_ keeps the
      // reader an invalidation target).
      if (!ForwardNotifyLocked(p, kOpHintConfirm, ctx.body())) {
        stats_.Inc("dsm.hint_confirms_dropped");
      }
      return;
    }
    ManagerEntry& m = *mp;
    // Only a quiescent entry at the served version can absorb the reader: a
    // busy entry means a transfer (possibly a write) is in flight, and a
    // version mismatch means the serve predates a committed write. Either
    // way the owner keeps the reader in hinted_pending_ and every write
    // serve covers it until this confirm eventually lands. A recovering
    // manager also drops it: the entry is about to be rebuilt from claims.
    if (!recovering_ && !m.busy && !m.migrating && m.version == version) {
      m.copyset.insert(ctx.origin());
      covered = true;
      owner = m.owner;
    }
  }
  if (!covered) {
    stats_.Inc("dsm.hint_confirms_dropped");
    return;
  }
  stats_.Inc("dsm.hint_confirms");
  if (owner == self_) {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (auto it = hinted_pending_.find(p); it != hinted_pending_.end()) {
      it->second.erase(ctx.origin());
      if (it->second.empty()) hinted_pending_.erase(it);
    }
    return;
  }
  base::WireWriter w;
  w.U32(p);
  w.U16(ctx.origin());
  endpoint_.Notify(owner, kOpHintCovered, std::move(w).Take());
}

void Host::HandleHintCovered(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const net::HostId reader = r.U16();
  if (!r.ok()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  std::lock_guard<std::mutex> lk(state_mu_);
  if (auto it = hinted_pending_.find(p); it != hinted_pending_.end()) {
    it->second.erase(reader);
    if (it->second.empty()) hinted_pending_.erase(it);
  }
}

void Host::HandleGroupFetch(net::RequestContext ctx) {
  bool ok = true;
  auto entries = DecodeGroupRequest(ctx.body(), &ok);
  if (!ok || entries.empty()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  // One server operation covers the whole batch — the point of the fast
  // path (versus one per page on the per-page path).
  rt_.Delay(profile_->server_op_cost);
  struct Prep {
    ManagerGrant g;
    std::uint64_t data_version = 0;
    bool granted = false;
    bool busy = false;
    bool lost = false;  // named owner but the copy died with a past life
  };
  std::vector<Prep> preps(entries.size());
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const GroupReqEntry& req = entries[i];
      Prep& pr = preps[i];
      if (req.page >= ptable_.num_pages()) {
        pr.busy = true;
        continue;
      }
      if (req.role == kToOwner) {
        // Pre-granted fetch against our local copy.
        const LocalPageEntry& e = ptable_.Local(req.page);
        if (cfg_.crash_recovery && e.access == Access::kNone && !e.retained) {
          pr.lost = true;
          continue;
        }
        pr.data_version = e.version;
        continue;
      }
      ManagerEntry* m = dir_.FindManager(req.page);
      if (m == nullptr || recovering_ || m->busy || m->migrating) {
        // Absent entries (migrated away under the dynamic directory) fall
        // back to the per-page path, which chases the forward chain.
        pr.busy = true;
        continue;
      }
      pr.g = BuildGrantLocked(req.page, ctx.origin(), /*is_write=*/false,
                              req.has_copy);
      pr.data_version = m->version;
      pr.granted = true;
    }
  }
  std::vector<GroupReplyEntry> res(entries.size());
  std::vector<net::Body> bodies;
  bool all_redirect = true;
  bool any_redirect = false;
  net::HostId redirect_owner = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GroupReqEntry& req = entries[i];
    Prep& pr = preps[i];
    GroupReplyEntry& e = res[i];
    e.page = req.page;
    if (pr.busy) {
      e.status = 0;  // requester falls back to the per-page path
      all_redirect = false;
      continue;
    }
    if (req.role == kToOwner) {
      if (pr.lost) {
        // Status 3: the grant named us owner but our copy died in a crash.
        // The redirect fields carry the grant id and this (dead) owner so
        // the requester can report the loss to the manager.
        e.status = 3;
        e.redirect.op_id = req.op_id;
        e.redirect.mgr = req.mgr;  // echoed so the loss report finds it
        e.redirect_owner = self_;
        all_redirect = false;
        stats_.Inc("dsm.owner_lost_detected");
        TraceEv(trace::EventKind::kOwnerLost, req.page, req.op_id,
                TraceParent(trace::OpKey(req.page, req.op_id)), self_);
        continue;
      }
      e.status = 1;
      bodies.push_back(EncodeServeReply(
          req.page, ctx.origin(), /*is_write=*/false, req.data_needed,
          req.op_id, pr.data_version, req.new_version, req.type,
          req.alloc_bytes, {}, req.mgr));
      all_redirect = false;
      continue;
    }
    if (pr.g.owner == ctx.origin()) {
      // Requester already owns the page (retained copy): no data leg.
      FetchReply fr;
      fr.op_id = pr.g.op_id;
      fr.data_version = pr.data_version;
      fr.new_version = pr.g.new_version;
      fr.owner = pr.g.owner;
      fr.mgr = self_;
      fr.type = pr.g.type;
      fr.alloc_bytes = pr.g.alloc_bytes;
      fr.has_data = false;
      fr.data_rep = arch::RepClassByte(net_.ProfileOf(pr.g.owner));
      e.status = 1;
      bodies.push_back(EncodeFetchReply(fr));
      all_redirect = false;
    } else if (pr.g.owner == self_) {
      // Manager host owns the page: serve directly (R -> M/O).
      e.status = 1;
      bodies.push_back(EncodeServeReply(
          req.page, ctx.origin(), /*is_write=*/false,
          !pr.g.requester_has_copy, pr.g.op_id, pr.data_version,
          pr.g.new_version, pr.g.type, pr.g.alloc_bytes, {}, self_));
      all_redirect = false;
    } else {
      // Third-party owner: hand the grant parameters back so the requester
      // batches a direct owner fetch — unless EVERY entry redirects to the
      // same owner, in which case the whole group is forwarded below.
      e.status = 2;
      e.redirect_owner = pr.g.owner;
      e.redirect.role = kToOwner;
      e.redirect.page = req.page;
      e.redirect.op_id = pr.g.op_id;
      e.redirect.new_version = pr.g.new_version;
      e.redirect.data_needed = !pr.g.requester_has_copy;
      e.redirect.type = pr.g.type;
      e.redirect.alloc_bytes = pr.g.alloc_bytes;
      e.redirect.mgr = self_;
      if (!any_redirect) {
        redirect_owner = pr.g.owner;
        any_redirect = true;
      } else if (redirect_owner != pr.g.owner) {
        all_redirect = false;
      }
    }
  }
  if (all_redirect && any_redirect) {
    // Every page is owned by one remote host: forward the whole group and
    // let the owner reply straight to the requester (1 RTT end to end).
    std::vector<GroupReqEntry> fwd;
    fwd.reserve(res.size());
    for (const GroupReplyEntry& e : res) fwd.push_back(e.redirect);
    stats_.Inc("dsm.group_forwards");
    TraceEv(trace::EventKind::kGroupFetch, fwd.front().page, 0,
            TraceParent(trace::OpKey(fwd.front().page, fwd.front().op_id)),
            static_cast<std::int64_t>(fwd.size()), redirect_owner);
    ctx.Forward(redirect_owner, EncodeGroupRequest(fwd));
    return;
  }
  std::int64_t served = 0;
  for (const GroupReplyEntry& e : res) {
    if (e.status == 1) ++served;
  }
  auto reply = EncodeGroupReply(std::move(res), std::move(bodies));
  stats_.Inc("dsm.group_serves");
  TraceEv(trace::EventKind::kGroupServe, entries.front().page, 0,
          TraceParent(trace::FaultKey(ctx.origin(), entries.front().page)),
          served, static_cast<std::int64_t>(reply.size()));
  ctx.Reply(std::move(reply), net::MsgKind::kData);
}

void Host::HandleGroupConfirm(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint16_t n = r.U16();
  struct Confirm {
    PageNum page = 0;
    std::uint64_t op_id = 0;
    bool is_write = false;
  };
  std::vector<Confirm> cs(n);
  for (Confirm& c : cs) {
    c.page = r.U32();
    c.op_id = r.U64();
    c.is_write = r.U8() != 0;
  }
  if (!r.ok()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  for (const Confirm& c : cs) {
    // ManagerCommit tolerates absent entries (migrated or rebuilt): a
    // misdelivered confirm lands in the stale-confirms bucket.
    if (c.page < ptable_.num_pages()) {
      ManagerCommit(c.page, c.op_id, ctx.origin(), c.is_write);
    }
  }
}

void Host::HandleInvalidate(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  if (!r.ok()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  TraceEv(trace::EventKind::kInvalidateRecv, p, 0,
          TraceParent(trace::InvKey(p)), ctx.origin());
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ApplyInvalidateLocked(p, ctx.origin());
  }
  ctx.Reply({});
}

bool Host::ApplyInvalidateLocked(PageNum p, net::HostId writer) {
  LocalPageEntry& e = ptable_.Local(p);
  bool dropped = false;
  if (e.access != Access::kNone) {
    e.access = Access::kNone;
    e.owned = false;
    dropped = true;
    stats_.Inc("dsm.invalidations_received");
    if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
  }
  // Another writer is committing: any retained image is now stale, and so
  // is every cached converted image of this page.
  e.retained = false;
  DropConvertCacheLocked(p);
  if (cfg_.probable_owner) {
    // The invalidating writer is about to own this page: remember it, and
    // poison any hinted fetch whose reply is crossing this invalidation.
    ptable_.SetHint(p, writer, IncOf(writer));
    if (auto it = hint_poison_.find(p); it != hint_poison_.end()) {
      it->second = true;
    }
  }
  if (dir_.dynamic() && !cfg_.hot_page_migration && writer != self_) {
    // Pure dynamic mode migrates management to every committing writer:
    // the invalidating writer is about to both own and manage this page.
    dir_.LearnManager(p, writer, IncOf(writer));
  }
  return dropped;
}

void Host::HandleInvalidateBatch(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint16_t n = r.U16();
  std::vector<PageNum> pages(n);
  for (auto& p : pages) p = r.U32();
  if (!r.ok() || pages.empty()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  // One server operation covers the whole batch — the point of coalescing.
  rt_.Delay(profile_->server_op_cost);
  const PageNum total = ptable_.num_pages();
  for (PageNum p : pages) {
    if (p >= total) continue;
    TraceEv(trace::EventKind::kInvalidateRecv, p, 0,
            TraceParent(trace::InvKey(p)), ctx.origin());
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (PageNum p : pages) {
      if (p >= total) continue;
      ApplyInvalidateLocked(p, ctx.origin());
    }
  }
  ctx.Reply({});
}

void Host::HandleConfirm(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const net::HostId requester = r.U16();
  const bool is_write = r.U8() != 0;
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  // Confirms target the granting manager directly (the requester learned it
  // from the grant), so the entry is normally here; ManagerCommit tolerates
  // absence after a recovery rebuild.
  ManagerCommit(p, op_id, requester, is_write);
}

void Host::HandleConfirmProbe(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  if (!r.ok()) return;
  enum class Answer { kConfirm, kExtend, kReject } answer;
  bool is_write = false;
  net::HostId manager = ctx.origin();
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (auto it = completed_.find({p, op_id}); it != completed_.end()) {
      answer = Answer::kConfirm;  // confirm was lost: replay it
      manager = it->second.manager;
      is_write = it->second.is_write;
    } else if (inflight_ops_.count({p, op_id}) > 0) {
      answer = Answer::kExtend;  // still invalidating/installing
    } else {
      // We never saw (or long evicted) this grant. Disown it — and fence the
      // op so a late-arriving reply carrying it is discarded, never
      // installed after the manager revokes.
      answer = Answer::kReject;
      FenceOpLocked(p, op_id);
    }
  }
  base::WireWriter w;
  w.U32(p);
  w.U64(op_id);
  switch (answer) {
    case Answer::kConfirm:
      w.U16(self_);
      w.U8(is_write ? 1 : 0);
      endpoint_.Notify(manager, kOpConfirm, std::move(w).Take());
      break;
    case Answer::kExtend:
      endpoint_.Notify(manager, kOpGrantExtend, std::move(w).Take());
      break;
    case Answer::kReject:
      stats_.Inc("dsm.grants_disowned");
      w.U8(0);  // unknown-op disown: says nothing about our copy state
      endpoint_.Notify(manager, kOpGrantReject, std::move(w).Take());
      break;
  }
}

void Host::HandleGrantReject(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  // Two distinct meanings share this opcode, told apart by the reason
  // byte: no_copy=1 is an install-time disclaim ("the grant is dataless
  // and I verifiably hold nothing"), no_copy=0 is mere abandonment (group
  // timeout, probe disown) that says nothing about the sender's copy.
  const bool no_copy = r.U8() != 0;
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  bool owner_disclaimed = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* mp = dir_.FindManager(p);
    if (mp == nullptr || !mp->busy || mp->busy_op_id != op_id ||
        mp->busy_requester != ctx.origin()) {
      return;  // stale reject of a committed, re-granted, or migrated entry
    }
    owner_disclaimed = no_copy && mp->owner == ctx.origin();
  }
  stats_.Inc("dsm.grant_rejects");
  if (owner_disclaimed) {
    // The owner of record itself just proved it holds no copy (it received
    // a dataless upgrade it cannot back): the copy died in a restart. Heal
    // the entry — promote a surviving holder or apply the lost-page
    // policy — rather than re-granting the same ghost upgrade forever.
    stats_.Inc("dsm.owner_lost_detected");
    HandlePageLostLocal(p, op_id, ctx.origin());
    return;
  }
  ManagerRevoke(p, op_id);
}

void Host::HandleGrantExtend(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  std::lock_guard<std::mutex> lk(state_mu_);
  ManagerEntry* m = dir_.FindManager(p);
  if (m != nullptr && m->busy && m->busy_op_id == op_id &&
      m->busy_requester == ctx.origin()) {
    m->busy_since = rt_.Now();  // requester is alive and mid-transfer
    stats_.Inc("dsm.grant_extends");
  }
}

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

// --------------------------------------------------------------------------
// Release consistency (§12 of DESIGN.md)
//
// Under SystemConfig::release_consistency a write fault never invalidates
// the copyset: the writer twins the page and defers its writes, and every
// sync operation is a release point that diffs the twins against the
// working copies and flushes only the dirty byte ranges to each page's
// home (the fixed manager — ownership never migrates under this mode, so
// home == owner == manager for every page). Acquiring sync operations
// (P / EventWait / Barrier) return the write notices published since this
// host last looked; stale local read copies are invalidated lazily there
// instead of eagerly at every store.
// --------------------------------------------------------------------------

Host::RcTwinResult Host::RcTwinPage(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  LocalPageEntry& e = ptable_.Local(p);
  if (e.access >= Access::kWrite) return RcTwinResult::kOk;  // already live
  if (e.access < Access::kRead) return RcTwinResult::kNoCopy;
  if (dir_.BaseManagedHere(p)) {
    // The home writes its master copy in place: there is nothing to diff
    // against later (release just commits a version bump), so no twin
    // buffer and zero wire bytes.
    rc_home_dirty_.insert(p);
    e.access = Access::kWrite;
    if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
    const std::uint64_t ev =
        TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
                static_cast<std::int64_t>(e.version), /*home_dirty=*/1);
    TraceBind(trace::RcTwinKey(self_, p), ev);
    stats_.Inc("dsm.rc_home_dirty_marks");
    return RcTwinResult::kOk;
  }
  if (rc_twins_.size() >= cfg_.rc_max_twins) {
    stats_.Inc("dsm.rc_twin_capacity_flushes");
    return RcTwinResult::kCapacity;
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  std::uint32_t extent = page_bytes_;
  if (cfg_.partial_page_transfer && e.alloc_bytes != 0) {
    extent = std::min(e.alloc_bytes, page_bytes_);
  }
  RcTwin twin;
  twin.base.assign(mem_.begin() + base, mem_.begin() + base + extent);
  twin.base_version = e.version;
  base::BulkCopyRecord(twin.base.size());
  rc_twins_.emplace(p, std::move(twin));
  e.access = Access::kWrite;  // local write permission only; owned stays off
  if (referee_ != nullptr) referee_->OnRcTwin(self_, p);
  const std::uint64_t ev =
      TraceEv(trace::EventKind::kTwinCreate, p, 0, 0,
              static_cast<std::int64_t>(e.version), /*home_dirty=*/0);
  TraceBind(trace::RcTwinKey(self_, p), ev);
  stats_.Inc("dsm.rc_twins");
  return RcTwinResult::kOk;
}

void Host::RcFlushTwins() {
  if (!cfg_.release_consistency) return;
  struct PendingFlush {
    PageNum page = 0;
    std::uint64_t seq = 0;
    std::uint64_t base_version = 0;
    arch::TypeId type = arch::TypeRegistry::kChar;
    bool home_dirty = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    std::vector<std::uint8_t> bytes;  // concatenated slot-aligned ranges
    std::uint64_t twin_ev = 0;
  };
  std::vector<PendingFlush> flushes;
  std::uint32_t life = 0;

  // Snapshot-claim: under one lock acquisition, diff every twin, demote the
  // page back to read access, and erase the twin. A thread writing the page
  // concurrently re-faults into a fresh twin after the demote, so no store
  // is ever lost between snapshot and flush.
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
    for (auto& [p, twin] : rc_twins_) {
      LocalPageEntry& e = ptable_.Local(p);
      const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
      const std::uint32_t extent =
          static_cast<std::uint32_t>(twin.base.size());
      const std::uint32_t stride = static_cast<std::uint32_t>(
          std::bit_ceil(registry_.SizeOf(e.type)));
      PendingFlush f;
      f.page = p;
      f.seq = ++rc_flush_seq_;
      f.base_version = twin.base_version;
      f.type = e.type;
      // Scan at slot granularity (the allocator's power-of-two stride, the
      // same unit the conversion layer works in) and coalesce consecutive
      // dirty slots into ranges.
      std::uint32_t diff_bytes = 0;
      for (std::uint32_t off = 0; off + stride <= extent;) {
        if (std::memcmp(twin.base.data() + off, mem_.data() + base + off,
                        stride) != 0) {
          std::uint32_t run = stride;
          while (off + run + stride <= extent &&
                 std::memcmp(twin.base.data() + off + run,
                             mem_.data() + base + off + run, stride) != 0) {
            run += stride;
          }
          f.ranges.emplace_back(off, run);
          diff_bytes += run;
          off += run;
        } else {
          off += stride;
        }
      }
      // Past the crossover a range list costs more than the page: send one
      // full-extent range instead (the degenerate diff IS the SC transfer).
      if (!f.ranges.empty() &&
          static_cast<std::uint64_t>(diff_bytes) * 100 >=
              static_cast<std::uint64_t>(cfg_.rc_diff_crossover_pct) *
                  extent) {
        const std::uint32_t full = extent - extent % stride;
        f.ranges.assign(1, {0u, full});
        stats_.Inc("dsm.rc_flush_full_extent");
      }
      for (const auto& [off, len] : f.ranges) {
        f.bytes.insert(f.bytes.end(), mem_.begin() + base + off,
                       mem_.begin() + base + off + len);
      }
      f.twin_ev = TraceParent(trace::RcTwinKey(self_, p));
      e.access = Access::kRead;
      if (referee_ != nullptr) {
        referee_->OnRcRelease(self_, p, /*kept_copy=*/true);
      }
      if (f.ranges.empty()) {
        stats_.Inc("dsm.rc_clean_twins");  // nothing stored; just released
      } else {
        flushes.push_back(std::move(f));
      }
    }
    rc_twins_.clear();
    for (PageNum p : rc_home_dirty_) {
      PendingFlush f;
      f.page = p;
      f.seq = ++rc_flush_seq_;
      f.home_dirty = true;
      f.twin_ev = TraceParent(trace::RcTwinKey(self_, p));
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      if (referee_ != nullptr) {
        referee_->OnRcRelease(self_, p, /*kept_copy=*/true);
      }
      flushes.push_back(std::move(f));
    }
    rc_home_dirty_.clear();
  }

  for (auto& f : flushes) {
    std::uint64_t new_version = 0;
    std::uint64_t prev_version = 0;
    bool applied = false;
    if (f.home_dirty) {
      // The master copy already holds the writes: committing is a version
      // bump — but not while a transfer serving the pre-release version is
      // in flight (its reply would install bytes labeled with a version the
      // commit just retired).
      for (int round = 0;; ++round) {
        bool busy = false;
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release: state is gone
          ManagerEntry& m = dir_.Manager(f.page);
          if (m.busy) {
            busy = true;
          } else {
            const auto nv = RcCommitFlushLocked(f.page, self_);
            new_version = nv.first;
            prev_version = nv.second;
            applied = true;
          }
        }
        if (!busy) break;
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "home-dirty release outwaited its retry budget");
        stats_.Inc("dsm.rc_flush_busy_retries");
        rt_.Delay(FaultBackoff(cfg_, std::min(round + 1, 8)));
      }
      if (applied) {
        const std::uint64_t ev =
            TraceEv(trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
                    /*diff_bytes=*/0, /*ranges=*/0);
        TraceBind(trace::RcNoticeKey(f.page), ev);
        stats_.Inc("dsm.rc_flushes");
      }
    } else {
      base::WireWriter w;
      w.U32(f.page);
      w.U64(f.seq);
      w.U16(f.type);
      w.U8(arch::RepClassByte(*profile_));
      w.U16(static_cast<std::uint16_t>(f.ranges.size()));
      for (const auto& [off, len] : f.ranges) {
        w.U32(off);
        w.U32(len);
      }
      w.Raw(f.bytes);
      const net::Body body(std::move(w).Take());
      const net::HostId home = dir_.BaseManagerOf(f.page);
      for (int round = 0;; ++round) {
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          if (life != life_) break;  // crashed mid-release
        }
        auto resp = endpoint_.CallWithStatus(home, kOpDiffFlush, body,
                                             net::MsgKind::kData,
                                             DsmCallOpts());
        if (resp.status == net::CallStatus::kShutdown) return;
        if (resp.status == net::CallStatus::kOk) {
          const auto rb = resp.body.ToVector();
          base::WireReader r(rb);
          const std::uint8_t status = r.U8();
          if (status == 0) {
            new_version = r.U64();
            prev_version = r.U64();
            if (r.ok()) {
              applied = true;
              break;
            }
          }
          // Busy or recovering home: back off and re-flush (same seq; the
          // home deduplicates if the earlier attempt actually applied).
        }
        MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit * 8,
                          "diff flush exhausted its retry budget");
        stats_.Inc("dsm.rc_flush_retries");
        rt_.Delay(FaultBackoff(cfg_, std::min(round + 1, 8)));
      }
      if (applied) {
        stats_.Inc("dsm.rc_flushes");
        stats_.Inc("dsm.rc_flush_bytes",
                   static_cast<std::int64_t>(f.bytes.size()));
        stats_.Inc("dsm.rc_flush_ranges",
                   static_cast<std::int64_t>(f.ranges.size()));
        const std::uint64_t ev = TraceEv(
            trace::EventKind::kDiffFlush, f.page, f.seq, f.twin_ev,
            static_cast<std::int64_t>(f.bytes.size()),
            static_cast<std::int64_t>(f.ranges.size()));
        TraceBind(trace::RcNoticeKey(f.page), ev);
        // Keep-copy rule: when nobody flushed between our twin and our
        // flush (prev == base), the local image equals the new master and
        // the copy stays valid at the committed version. Any interleaved
        // flush means our image lacks another writer's bytes: drop it.
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life == life_) {
          LocalPageEntry& e = ptable_.Local(f.page);
          if (rc_twins_.count(f.page) == 0 && e.access == Access::kRead &&
              e.version == f.base_version) {
            if (prev_version == f.base_version) {
              e.version = new_version;
              stats_.Inc("dsm.rc_copies_kept");
            } else {
              e.access = Access::kNone;
              e.owned = false;
              e.retained = false;
              DropConvertCacheLocked(f.page);
              if (referee_ != nullptr) referee_->OnInvalidate(self_, f.page);
              stats_.Inc("dsm.rc_self_invalidations");
            }
          }
        }
      }
    }
    if (applied) {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life == life_) {
        rc_pending_notices_.push_back(
            {f.page, new_version, static_cast<std::uint16_t>(self_)});
      }
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> Host::RcCommitFlushLocked(
    PageNum p, net::HostId origin, bool drop_cache) {
  ManagerEntry& m = dir_.Manager(p);
  const std::uint64_t prev = m.version;
  ++m.version;
  // The home's master copy tracks the committed version, and — the
  // "write bumps the version" invariant — every cached converted image of
  // this page is unservable the instant a diff mutates it. A remote diff
  // flush knows exactly which byte ranges changed, so its caller patches
  // the cached images in place instead of dropping them (drop_cache=false).
  LocalPageEntry& e = ptable_.Local(p);
  e.version = m.version;
  if (drop_cache) DropConvertCacheLocked(p);
  if (referee_ != nullptr) referee_->OnRcFlush(origin, p, m.version);
  return {m.version, prev};
}

void Host::PatchConvertCacheLocked(
    PageNum p, std::uint64_t prev_version, std::uint64_t new_version,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  // A diff flush is a partial write: whole-page converted images cached at
  // the pre-flush version stay correct outside the flushed ranges. Re-run
  // the codec on just those ranges (slot-aligned by construction) and
  // re-key the image to the committed version, instead of throwing the
  // whole conversion away.
  std::vector<ConvertCacheKey> keys;
  for (const auto& [k, img] : convert_cache_) {
    if (k.page == p && k.version == prev_version) keys.push_back(k);
  }
  const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
  const arch::TypeId type = ptable_.Local(p).type;
  for (const ConvertCacheKey& key : keys) {
    const arch::ArchProfile* target = nullptr;
    for (net::HostId h = 0; h < num_hosts_; ++h) {
      if (arch::RepClassByte(net_.ProfileOf(h)) == key.rep) {
        target = &net_.ProfileOf(h);
        break;
      }
    }
    if (target == nullptr) continue;  // no such architecture anymore
    base::Buffer& cached = convert_cache_[key];
    const std::uint32_t extent = static_cast<std::uint32_t>(cached.size());
    // Copy-on-write: the cached buffer may back an in-flight reply chain.
    std::vector<std::uint8_t> img(cached.span().begin(), cached.span().end());
    for (const auto& [off, len] : ranges) {
      if (off >= extent) continue;
      const std::uint32_t n = std::min(len, extent - off);
      std::copy(mem_.begin() + base + off, mem_.begin() + base + off + n,
                img.begin() + off);
      if (key.rep != arch::RepClassByte(*profile_)) {
        arch::ConvertStats cstats;
        arch::ConvertContext cctx;
        cctx.src = profile_;
        cctx.dst = target;
        cctx.stats = &cstats;
        ConvertSlots(registry_, type,
                     std::span<std::uint8_t>(img.data() + off, n), n, cctx);
      }
    }
    const ConvertCacheKey new_key{p, new_version, key.rep};
    convert_cache_.erase(key);
    convert_cache_[new_key] = base::Buffer(std::move(img));
    for (auto& k : convert_cache_order_) {
      if (k == key) k = new_key;
    }
    stats_.Inc("dsm.convert_cache_patched");
  }
}

std::vector<sync::WriteNotice> Host::RcDrainNotices() {
  if (!cfg_.release_consistency) return {};
  RcFlushTwins();
  std::lock_guard<std::mutex> lk(state_mu_);
  return std::exchange(rc_pending_notices_, {});
}

void Host::RcApplyNotices(const std::vector<sync::WriteNotice>& notices,
                          bool reset) {
  if (!cfg_.release_consistency) return;
  std::lock_guard<std::mutex> lk(state_mu_);
  if (reset) {
    // The server's bounded notice log was truncated past this client's
    // cursor: unknown notices were missed, so every read copy that is
    // neither twinned nor the master here is conservatively stale.
    stats_.Inc("dsm.rc_notice_resets");
    for (PageNum p = 0; p < ptable_.num_pages(); ++p) {
      if (dir_.BaseManagedHere(p) || rc_twins_.count(p) != 0) continue;
      LocalPageEntry& e = ptable_.Local(p);
      e.retained = false;
      if (e.access == Access::kNone) continue;
      e.access = Access::kNone;
      e.owned = false;
      DropConvertCacheLocked(p);
      if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
      stats_.Inc("dsm.rc_reset_invalidations");
    }
  }
  for (const sync::WriteNotice& n : notices) {
    const PageNum p = n.page;
    if (p >= ptable_.num_pages()) continue;
    if (n.origin == self_) continue;          // our own flush
    if (dir_.BaseManagedHere(p)) continue;    // the master is always fresh
    if (rc_twins_.count(p) != 0) continue;    // flushed at our next release
    LocalPageEntry& e = ptable_.Local(p);
    if (e.access == Access::kNone || e.version >= n.version) continue;
    e.access = Access::kNone;
    e.owned = false;
    e.retained = false;
    DropConvertCacheLocked(p);
    if (referee_ != nullptr) referee_->OnInvalidate(self_, p);
    TraceEv(trace::EventKind::kWriteNotice, p, 0,
            TraceParent(trace::RcNoticeKey(p)),
            static_cast<std::int64_t>(n.version), n.origin);
    stats_.Inc("dsm.rc_notices_applied");
  }
}

void Host::HandleDiffFlush(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t seq = r.U64();
  const arch::TypeId type = r.U16();
  const std::uint8_t rep = r.U8();
  const std::uint16_t n_ranges = r.U16();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(n_ranges);
  std::size_t total = 0;
  bool sane = true;
  for (auto& [off, len] : ranges) {
    off = r.U32();
    len = r.U32();
    if (len == 0 || off + static_cast<std::uint64_t>(len) > page_bytes_) {
      sane = false;
    }
    total += len;
  }
  const std::span<const std::uint8_t> raw = r.Raw(total);
  if (!r.ok() || !sane || !cfg_.release_consistency ||
      !dir_.BaseManagedHere(p)) {
    stats_.Inc("dsm.malformed");
    return;
  }
  const net::HostId origin = ctx.origin();
  const RcFlushKey key{p, origin, seq};
  rt_.Delay(profile_->server_op_cost);

  const auto reply_ok = [&ctx](std::uint64_t nv, std::uint64_t pv) {
    base::WireWriter w;
    w.U8(0);
    w.U64(nv);
    w.U64(pv);
    ctx.Reply(std::move(w).Take());
  };
  const auto reply_busy = [&ctx] {
    base::WireWriter w;
    w.U8(1);
    ctx.Reply(std::move(w).Take());
  };

  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // Mid-reconstruction versions are untrustworthy; drop the request so
      // the writer's call times out and retries after the rebuild.
      stats_.Inc("dsm.recovery_dropped_reqs");
      return;
    }
    // A release re-issued as a fresh call after a timeout must not apply
    // its diffs twice (the endpoint dedup only covers same-req-id
    // retransmits): answer from the applied record.
    if (const auto it = rc_applied_.find(key); it != rc_applied_.end()) {
      stats_.Inc("dsm.rc_flush_replays");
      reply_ok(it->second.new_version, it->second.prev_version);
      return;
    }
    if (dir_.Manager(p).busy) {
      // A transfer is in flight at the pre-flush version; applying now
      // would let its reply install bytes newer than their label. The
      // writer backs off and retries.
      stats_.Inc("dsm.rc_flush_busy_rejects");
      reply_busy();
      return;
    }
  }

  // Convert outside the lock (the codec models real per-element cost). The
  // payload is a concatenation of slot-aligned ranges, i.e. a contiguous
  // element array in the writer's representation.
  std::vector<std::uint8_t> payload(raw.begin(), raw.end());
  if (cfg_.convert_enabled && rep != arch::RepClassByte(*profile_)) {
    ConvertIncoming(p, payload, type, net_.ProfileOf(origin),
                    /*run_codec=*/true);
  }

  std::uint64_t new_version = 0;
  std::uint64_t prev_version = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      stats_.Inc("dsm.recovery_dropped_reqs");
      return;
    }
    if (const auto it = rc_applied_.find(key); it != rc_applied_.end()) {
      stats_.Inc("dsm.rc_flush_replays");
      reply_ok(it->second.new_version, it->second.prev_version);
      return;
    }
    if (dir_.Manager(p).busy) {  // went busy during the conversion
      stats_.Inc("dsm.rc_flush_busy_rejects");
      reply_busy();
      return;
    }
    const GlobalAddr base = static_cast<GlobalAddr>(p) * page_bytes_;
    std::size_t pos = 0;
    for (const auto& [off, len] : ranges) {
      std::copy(payload.begin() + pos, payload.begin() + pos + len,
                mem_.begin() + base + off);
      pos += len;
    }
    base::BulkCopyRecord(payload.size());
    const auto nv = RcCommitFlushLocked(p, origin, /*drop_cache=*/false);
    new_version = nv.first;
    prev_version = nv.second;
    PatchConvertCacheLocked(p, prev_version, new_version, ranges);
    while (rc_applied_order_.size() >= 8192) {
      rc_applied_.erase(rc_applied_order_.front());
      rc_applied_order_.pop_front();
    }
    rc_applied_order_.push_back(key);
    rc_applied_[key] = {new_version, prev_version};
    stats_.Inc("dsm.rc_flushes_applied");
    stats_.Inc("dsm.rc_flush_bytes_in",
               static_cast<std::int64_t>(payload.size()));
  }
  reply_ok(new_version, prev_version);
}

std::size_t Host::RcTwinCount() {
  std::lock_guard<std::mutex> lk(state_mu_);
  return rc_twins_.size() + rc_home_dirty_.size();
}

net::HostId Host::HintSnapshot(PageNum p) {
  std::lock_guard<std::mutex> lk(state_mu_);
  return ptable_.HintOf(p);
}

void Host::ConvertIncoming(PageNum p, std::span<std::uint8_t> data,
                           arch::TypeId type, const arch::ArchProfile& from,
                           bool run_codec) {
  if (run_codec) {
    arch::ConvertStats cstats;
    arch::ConvertContext ctx;
    ctx.src = &from;
    ctx.dst = profile_;
    ctx.stats = &cstats;
    ConvertSlots(registry_, type, data,
                 static_cast<std::uint32_t>(data.size()), ctx);
    if (cstats.total_lossy() > 0) {
      stats_.Inc("dsm.convert_lossy", cstats.total_lossy());
    }
  }
  // The calibrated Table-3 delay and the per-host conversion counters are
  // always charged at the receiver, independent of where the codec ran, so
  // first-fault timing and stats match the paper's receiver-converts model.
  const std::size_t stride = std::bit_ceil(registry_.SizeOf(type));
  const std::size_t elems = data.size() / stride;
  const SimDuration delay = registry_.ModeledElementCost(*profile_, type) *
                            static_cast<SimDuration>(elems);
  rt_.Delay(delay);
  stats_.Inc("dsm.conversions");
  stats_.Inc("dsm.converted_elements", static_cast<std::int64_t>(elems));
  stats_.Sample("dsm.convert_ms", ToMillis(delay));
  stats_.Hist("dsm.convert_time_ms", ToMillis(delay));
  TraceEv(trace::EventKind::kConvert, p, 0, 0,
          static_cast<std::int64_t>(elems),
          static_cast<std::int64_t>(delay));
}

void Host::DropConvertCacheLocked(PageNum p) {
  for (auto it = convert_cache_.begin(); it != convert_cache_.end();) {
    if (it->first.page == p) {
      it = convert_cache_.erase(it);
      stats_.Inc("dsm.convert_cache_evictions");
    } else {
      ++it;
    }
  }
  std::erase_if(convert_cache_order_,
                [p](const ConvertCacheKey& k) { return k.page == p; });
}

void Host::FenceOpLocked(PageNum p, std::uint64_t op_id) {
  if (fenced_.insert({p, op_id}).second) {
    while (fenced_order_.size() >= 4096) {
      fenced_.erase(fenced_order_.front());
      fenced_order_.pop_front();
    }
    fenced_order_.emplace_back(p, op_id);
  }
}

void Host::RecordCompleted(PageNum p, std::uint64_t op_id,
                           net::HostId manager, bool is_write) {
  std::lock_guard<std::mutex> lk(state_mu_);
  inflight_ops_.erase({p, op_id});
  while (completed_order_.size() >= 4096) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
  completed_order_.emplace_back(p, op_id);
  completed_[{p, op_id}] = CompletedOp{manager, is_write};
}

net::Body Host::EncodeFetchReply(const FetchReply& r) const {
  base::WireWriter w;
  w.U64(r.op_id);
  w.U64(r.data_version);
  w.U64(r.new_version);
  w.U16(r.owner);
  // Wire fields gated on the governing knob (house rule): the granting
  // manager's identity only exists on the wire under the dynamic directory,
  // so knobs-off byte images are unchanged.
  if (dir_.dynamic()) w.U16(r.mgr);
  w.U16(r.type);
  w.U32(r.alloc_bytes);
  w.U16(static_cast<std::uint16_t>(r.to_invalidate.size()));
  for (net::HostId h : r.to_invalidate) w.U16(h);
  w.U8(r.has_data ? 1 : 0);
  w.U8(r.data_rep);
  w.U8(static_cast<std::uint8_t>((r.sender_converted ? 1 : 0) |
                                 (r.from_cache ? 2 : 0) |
                                 (r.owner_lost ? 4 : 0) |
                                 (r.mgr_redirect ? 8 : 0)));
  // The page data rides as a shared buffer chain behind the metadata — the
  // endpoint and fragment layers never copy it.
  return net::Body(std::move(w).Take(), r.data);
}

Host::FetchReply Host::DecodeFetchReply(const base::BufferChain& body) const {
  // Metadata sits in the first chunk by construction (the sender serializes
  // framing + metadata into one buffer); fall back to flattening if a
  // degenerate MTU split it.
  base::Buffer meta =
      body.chunk_count() > 0 ? body.chunk(0) : base::Buffer();
  bool flattened = false;
  for (;;) {
    base::WireReader r(meta.span());
    FetchReply out;
    out.op_id = r.U64();
    out.data_version = r.U64();
    out.new_version = r.U64();
    out.owner = r.U16();
    if (dir_.dynamic()) out.mgr = r.U16();
    out.type = r.U16();
    out.alloc_bytes = r.U32();
    const std::uint16_t n = r.U16();
    out.to_invalidate.resize(n);
    for (auto& h : out.to_invalidate) h = r.U16();
    out.has_data = r.U8() != 0;
    out.data_rep = r.U8();
    const std::uint8_t flags = r.U8();
    out.sender_converted = (flags & 1) != 0;
    out.from_cache = (flags & 2) != 0;
    out.owner_lost = (flags & 4) != 0;
    out.mgr_redirect = (flags & 8) != 0;
    if (r.ok()) {
      if (out.has_data) {
        const std::size_t consumed = meta.size() - r.remaining();
        out.data = flattened ? base::BufferChain(meta).Slice(consumed)
                             : body.Slice(consumed);
      }
      return out;
    }
    MERMAID_CHECK_MSG(!flattened && meta.size() < body.size(),
                      "malformed fetch reply");
    meta = body.Flatten();
    flattened = true;
  }
}

net::Body Host::EncodeGroupRequest(
    const std::vector<GroupReqEntry>& es) const {
  base::WireWriter w;
  w.U16(static_cast<std::uint16_t>(es.size()));
  for (const GroupReqEntry& e : es) {
    w.U8(e.role);
    w.U32(e.page);
    if (e.role == kToManager) {
      w.U8(e.has_copy ? 1 : 0);
    } else {
      w.U64(e.op_id);
      w.U64(e.new_version);
      w.U8(e.data_needed ? 1 : 0);
      w.U16(e.type);
      w.U32(e.alloc_bytes);
      // Granting manager (dynamic only): the owner echoes it back so the
      // requester confirms to the host that actually holds the busy entry.
      if (dir_.dynamic()) w.U16(e.mgr);
    }
  }
  return std::move(w).Take();
}

std::vector<Host::GroupReqEntry> Host::DecodeGroupRequest(
    std::span<const std::uint8_t> body, bool* ok) const {
  base::WireReader r(body);
  const std::uint16_t n = r.U16();
  std::vector<GroupReqEntry> es;
  es.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    GroupReqEntry e;
    e.role = r.U8();
    e.page = r.U32();
    if (e.role == kToManager) {
      e.has_copy = r.U8() != 0;
    } else if (e.role == kToOwner) {
      e.op_id = r.U64();
      e.new_version = r.U64();
      e.data_needed = r.U8() != 0;
      e.type = r.U16();
      e.alloc_bytes = r.U32();
      if (dir_.dynamic()) e.mgr = r.U16();
    } else {
      *ok = false;
      return {};
    }
    es.push_back(e);
  }
  *ok = r.ok();
  return es;
}

net::Body Host::EncodeGroupReply(std::vector<GroupReplyEntry> es,
                                 std::vector<net::Body> grant_bodies) const {
  // Head: per-entry metadata with, for grants, the length of the embedded
  // FetchReply head and of its data slice. The data slices are concatenated
  // behind the head as a shared chain — like EncodeFetchReply, nothing is
  // copied between the owner's serve and the wire.
  base::WireWriter w;
  base::BufferChain data;
  std::size_t gi = 0;
  w.U16(static_cast<std::uint16_t>(es.size()));
  for (GroupReplyEntry& e : es) {
    w.U32(e.page);
    w.U8(e.status);
    if (e.status == 1) {
      net::Body& b = grant_bodies[gi++];
      w.U32(static_cast<std::uint32_t>(b.head.size()));
      w.U64(b.data.size());
      w.Raw(b.head);
      data.Append(std::move(b.data));
    } else if (e.status == 2) {
      w.U16(e.redirect_owner);
      w.U64(e.redirect.op_id);
      w.U64(e.redirect.new_version);
      w.U8(e.redirect.data_needed ? 1 : 0);
      w.U16(e.redirect.type);
      w.U32(e.redirect.alloc_bytes);
      if (dir_.dynamic()) w.U16(e.redirect.mgr);
    } else if (e.status == 3) {
      // Owner lost: just the grant id and the amnesiac owner.
      w.U64(e.redirect.op_id);
      w.U16(e.redirect_owner);
      if (dir_.dynamic()) w.U16(e.redirect.mgr);
    }
  }
  return net::Body(std::move(w).Take(), std::move(data));
}

std::vector<Host::GroupReplyEntry> Host::DecodeGroupReply(
    const base::BufferChain& body) const {
  // Same chunk(0)-first pattern as DecodeFetchReply: metadata sits in the
  // first chunk by construction; flatten only if a degenerate MTU split it.
  // Data offsets computed against the flattened bytes are equally valid on
  // the original chain (same logical byte string), so slices stay shared.
  base::Buffer meta =
      body.chunk_count() > 0 ? body.chunk(0) : base::Buffer();
  bool flattened = false;
  for (;;) {
    base::WireReader r(meta.span());
    const std::uint16_t n = r.U16();
    std::vector<GroupReplyEntry> es(n);
    std::vector<std::uint64_t> data_lens(n, 0);
    bool ok = true;
    for (std::uint16_t i = 0; i < n && ok; ++i) {
      GroupReplyEntry& e = es[i];
      e.page = r.U32();
      e.status = r.U8();
      if (e.status == 1) {
        const std::uint32_t head_len = r.U32();
        data_lens[i] = r.U64();
        auto head = r.Raw(head_len);
        if (!r.ok()) break;
        e.fr = DecodeFetchReply(base::BufferChain(
            std::vector<std::uint8_t>(head.begin(), head.end())));
      } else if (e.status == 2) {
        e.redirect_owner = r.U16();
        e.redirect.role = kToOwner;
        e.redirect.page = e.page;
        e.redirect.op_id = r.U64();
        e.redirect.new_version = r.U64();
        e.redirect.data_needed = r.U8() != 0;
        e.redirect.type = r.U16();
        e.redirect.alloc_bytes = r.U32();
        if (dir_.dynamic()) e.redirect.mgr = r.U16();
      } else if (e.status == 3) {
        e.redirect.page = e.page;
        e.redirect.op_id = r.U64();
        e.redirect_owner = r.U16();
        if (dir_.dynamic()) e.redirect.mgr = r.U16();
      } else if (e.status != 0) {
        ok = false;
      }
    }
    if (ok && r.ok()) {
      std::size_t off = meta.size() - r.remaining();
      for (std::uint16_t i = 0; i < n; ++i) {
        if (es[i].status == 1 && es[i].fr.has_data) {
          es[i].fr.data = body.Slice(off, data_lens[i]);
          off += data_lens[i];
        }
      }
      return es;
    }
    MERMAID_CHECK_MSG(!flattened && meta.size() < body.size(),
                      "malformed group fetch reply");
    meta = body.Flatten();
    flattened = true;
  }
}

// --------------------------------------------------------------------------
// Crash-stop recovery
// --------------------------------------------------------------------------

namespace {

std::uint8_t AccessByte(Access a) {
  return a == Access::kWrite ? 2 : (a == Access::kRead ? 1 : 0);
}

Access AccessFromByte(std::uint8_t b) {
  return b == 2 ? Access::kWrite : (b == 1 ? Access::kRead : Access::kNone);
}

}  // namespace

std::uint32_t Host::IncOf(net::HostId h) {
  if (!cfg_.crash_recovery) return 0;
  return h == self_ ? endpoint_.incarnation() : endpoint_.PeerIncarnation(h);
}

void Host::CrashWipe() {
  // Fence the wire first: bump this host's incarnation (stamped into every
  // subsequent message), abandon pending calls, drop reassembly partials
  // and the dedup window.
  endpoint_.CrashReset();
  std::vector<sim::Chan<bool>> waiters;
  std::vector<sim::Chan<ManagerGrant>> local_grants;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++life_;
    recovering_ = true;
    op_epoch_ = endpoint_.incarnation();
    op_counter_ = 0;
    // Local fault threads parked on a grant channel would wedge forever
    // once their queue entries are wiped: collect the channels and wake
    // them with the op_id==0 crash sentinel after the lock drops.
    dir_.ForEachManaged([&](PageNum, ManagerEntry& m) {
      for (PendingTransfer& t : m.pending) {
        if (!t.remote.has_value()) local_grants.push_back(t.local_grant);
      }
    });
    ptable_.WipeForCrash();
    dir_.WipeForCrash();
    reclaiming_.clear();
    std::fill(mem_.begin(), mem_.end(), 0);
    for (auto& [p, chans] : fault_waiters_) {
      for (auto& c : chans) waiters.push_back(std::move(c));
    }
    fault_waiters_.clear();
    fault_inflight_.clear();
    completed_.clear();
    completed_order_.clear();
    inflight_ops_.clear();
    fenced_.clear();
    fenced_order_.clear();
    convert_cache_.clear();
    convert_cache_order_.clear();
    hinted_pending_.clear();
    hint_poison_.clear();
    write_pending_.clear();
    rc_twins_.clear();
    rc_home_dirty_.clear();
    rc_pending_notices_.clear();
    rc_applied_.clear();
    rc_applied_order_.clear();
  }
  stats_.Inc("dsm.crashes");
  for (auto& c : waiters) c.Send(true);
  for (auto& c : local_grants) c.Send(ManagerGrant{});
}

void Host::HandlePageLost(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t op_id = r.U64();
  const net::HostId dead_owner = r.U16();
  if (!r.ok() || p >= ptable_.num_pages() ||
      (!dir_.dynamic() && !dir_.BaseManagedHere(p))) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (recovering_) {
      // The rebuild arbitrates from fresh claims; a concurrent report adds
      // nothing. No reply: the reporter refaults anyway.
      stats_.Inc("dsm.recovery_dropped_reqs");
      return;
    }
  }
  HandlePageLostLocal(p, op_id, dead_owner);
  ctx.Reply({});
}

void Host::HandlePageLostLocal(PageNum p, std::uint64_t op_id,
                               net::HostId dead_owner, bool drain) {
  bool promote_remote = false;
  bool reinit = false;
  net::HostId new_owner = 0;
  std::uint64_t promote_version = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    // A report carrying a grant id from a previous life of this manager is
    // a pre-crash zombie: the entry was rebuilt since. Drop it.
    if (op_id != 0 && (op_id >> 48) != op_epoch_) return;
    ManagerEntry* mp = dir_.FindManager(p);
    if (mp == nullptr) return;  // migrated away: the new manager re-detects
    ManagerEntry& m = *mp;
    if (m.owner != dead_owner) return;  // stale report: already healed
    stats_.Inc("dsm.owner_lost_reports");
    m.copyset.erase(dead_owner);
    if (m.busy && m.busy_op_id == op_id) m.busy = false;
    if (!m.copyset.empty()) {
      // Promote the lowest-id surviving copy holder. The version is
      // unchanged: every copyset member holds the committed image.
      m.owner = *m.copyset.begin();
      new_owner = m.owner;
      promote_version = m.version;
      if (new_owner == self_) {
        ptable_.Local(p).owned = true;
      } else {
        promote_remote = true;
      }
    } else {
      // The sole copy died with its owner.
      MERMAID_CHECK_MSG(cfg_.lost_page_policy == SystemConfig::LostPagePolicy::kReinitZero,
                        "page lost: the only copy died with its owner");
      stats_.Inc("dsm.recovery_pages_lost");
      m.owner = self_;
      m.copyset = {self_};
      m.version = 0;
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      e.owned = true;
      e.version = 0;
      e.retained = false;
      e.type = m.type;
      e.alloc_bytes = m.alloc_bytes;
      const std::size_t base = static_cast<std::size_t>(p) * page_bytes_;
      const std::size_t end =
          std::min<std::size_t>(base + page_bytes_, mem_.size());
      std::fill(mem_.begin() + base, mem_.begin() + end, 0);
      DropConvertCacheLocked(p);
      reinit = true;
    }
  }
  if (reinit) {
    TraceEv(trace::EventKind::kRecoveryLost, p, op_id, 0, dead_owner);
    if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
  } else {
    TraceEv(trace::EventKind::kRecoveryDemote, p, op_id, 0, new_owner, 2);
    if (promote_remote) {
      // Fire-and-forget: the promotion only flips the new owner's `owned`
      // bit (its copy is already live), so a lost notify costs an extra
      // manager hop later, never correctness.
      base::WireWriter w;
      w.U16(1);
      w.U32(p);
      w.U8(2);  // mode 2: promote
      w.U64(promote_version);
      endpoint_.Notify(new_owner, kOpRecoveryDemote, std::move(w).Take());
    }
  }
  if (drain) ManagerDrain(p);
}

void Host::HandleRecoveryQuery(net::RequestContext ctx) {
  const net::HostId mgr = ctx.origin();
  rt_.Delay(profile_->server_op_cost);
  // An empty body is the full sweep (every page whose base placement is the
  // querying host). A non-empty body lists explicit pages — the targeted
  // reclaim of a migrated directory entry whose manager died — and skips the
  // base-placement filter, since the reclaiming host need not be the base.
  std::vector<PageNum> wanted;
  if (!ctx.body().empty()) {
    base::WireReader r(ctx.body());
    const std::uint16_t n = r.U16();
    for (std::uint16_t i = 0; i < n; ++i) wanted.push_back(r.U32());
    if (!r.ok()) {
      stats_.Inc("dsm.malformed");
      return;
    }
  }
  struct Claim {
    PageNum page = 0;
    std::uint64_t version = 0;
    std::uint8_t access = 0;
    std::uint8_t flags = 0;
    std::uint64_t op_id = 0;
    bool op_is_write = false;
    std::uint64_t op_new_version = 0;
    std::uint16_t type = 0;
    std::uint32_t alloc_bytes = 0;
  };
  std::vector<Claim> claims;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto emit = [&](PageNum p) {
      const LocalPageEntry& e = ptable_.Local(p);
      Claim c;
      c.page = p;
      c.version = e.version;
      c.access = AccessByte(e.access);
      if (cfg_.release_consistency && e.access == Access::kWrite) {
        // Under release consistency a write-accessible page is a local twin
        // (or home-dirty): the manager of record never granted write
        // ownership, so claim it as a read copy at its base version — the
        // rebuilt entry must not adopt a deferred-write buffer as owner.
        c.access = AccessByte(Access::kRead);
      }
      c.flags = static_cast<std::uint8_t>((e.owned ? 1 : 0) |
                                          (e.retained ? 2 : 0));
      // Dynamic directory: flag pages this host currently manages, so the
      // recovering base host installs a forward pointer instead of seizing
      // management back from a live migrated entry.
      if (dir_.dynamic() && dir_.ManagedHere(p) && !recovering_) c.flags |= 4;
      c.type = static_cast<std::uint16_t>(e.type);
      c.alloc_bytes = e.alloc_bytes;
      // The highest-id in-flight grant: a decoded-but-unconfirmed transfer
      // this host WILL install, which the manager must adopt as busy.
      for (auto it = inflight_ops_.lower_bound({p, 0});
           it != inflight_ops_.end() && it->first.first == p; ++it) {
        c.op_id = it->first.second;
        c.op_is_write = it->second.is_write;
        c.op_new_version = it->second.new_version;
      }
      // Claim only pages with something to say: a copy, a retained image,
      // an in-flight grant, a managed entry, or a version trace (evidence
      // the page once lived, so a silent total loss is detected, not
      // reinitialized).
      if (c.version == 0 && c.access == 0 && c.flags == 0 && c.op_id == 0) {
        return;
      }
      claims.push_back(c);
    };
    if (wanted.empty()) {
      for (PageNum p = 0; p < ptable_.num_pages(); ++p) {
        if (dir_.BaseManagerOf(p) != mgr) continue;
        emit(p);
      }
    } else {
      for (PageNum p : wanted) {
        if (p < ptable_.num_pages()) emit(p);
      }
    }
  }
  base::WireWriter w;
  w.U16(static_cast<std::uint16_t>(claims.size()));
  for (const Claim& c : claims) {
    w.U32(c.page);
    w.U64(c.version);
    w.U8(c.access);
    w.U8(c.flags);
    w.U64(c.op_id);
    w.U8(c.op_is_write ? 1 : 0);
    w.U64(c.op_new_version);
    if (dir_.dynamic()) {
      w.U16(c.type);
      w.U32(c.alloc_bytes);
    }
  }
  ctx.Reply(std::move(w).Take());
}

void Host::HandleRecoveryDemote(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const std::uint16_t n = r.U16();
  struct Cmd {
    PageNum p = 0;
    std::uint8_t mode = 0;  // 0 drop, 1 downgrade+disown, 2 promote
    std::uint64_t version = 0;
  };
  std::vector<Cmd> cmds(n);
  for (Cmd& c : cmds) {
    c.p = r.U32();
    c.mode = r.U8();
    c.version = r.U64();
  }
  if (!r.ok()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  // Referee events are collected under the lock and reported after it (the
  // referee takes its own mutex; keep the order state_mu_ -> referee only).
  struct Ev {
    std::uint8_t kind = 0;  // 0 invalidate, 1 downgrade, 2 install
    PageNum p = 0;
    std::uint64_t version = 0;
  };
  std::vector<Ev> evs;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    for (const Cmd& c : cmds) {
      if (c.p >= ptable_.num_pages()) continue;
      LocalPageEntry& e = ptable_.Local(c.p);
      if (c.mode == 0 || c.mode == 1) {
        // A drop/downgrade proves the rebuilt manager did NOT adopt any
        // grant we have decoded for this page (adopted claimants are never
        // demoted): fence those ops so their pending installs are discarded
        // instead of resurrecting the demoted state, and let the fault path
        // retry against the rebuilt manager.
        for (auto it = inflight_ops_.lower_bound({c.p, 0});
             it != inflight_ops_.end() && it->first.first == c.p;) {
          FenceOpLocked(it->first.first, it->first.second);
          it = inflight_ops_.erase(it);
        }
      }
      if (c.mode == 0) {
        // This copy lost the rebuild arbitration (stale version, demoted
        // duplicate, or a dangling retained image).
        if (e.access != Access::kNone) {
          evs.push_back({0, c.p, 0});
          stats_.Inc("dsm.recovery_demotions");
        }
        e.access = Access::kNone;
        e.owned = false;
        e.retained = false;
        DropConvertCacheLocked(c.p);
      } else if (c.mode == 1) {
        // Ownership moved elsewhere; the copy stays readable.
        if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          evs.push_back({1, c.p, 0});
          stats_.Inc("dsm.recovery_demotions");
        }
        e.owned = false;
      } else if (c.mode == 2) {
        // This host is the rebuilt owner. A retained pre-crash image is
        // re-animated as the live copy; a write grant is conservatively
        // downgraded (the rebuild leaves no page writable, so MRSW holds
        // by construction through the heal).
        if (e.access == Access::kNone && e.retained) {
          e.access = Access::kRead;
          e.retained = false;
          evs.push_back({2, c.p, e.version});
        } else if (e.access == Access::kWrite) {
          e.access = Access::kRead;
          evs.push_back({1, c.p, 0});
        }
        if (e.access != Access::kNone) {
          e.owned = true;
          stats_.Inc("dsm.recovery_promotions");
        }
      }
      TraceEv(trace::EventKind::kRecoveryDemote, c.p, 0, 0, ctx.origin(),
              c.mode);
    }
  }
  for (const Ev& ev : evs) {
    if (referee_ == nullptr) break;
    if (ev.kind == 0) {
      referee_->OnInvalidate(self_, ev.p);
    } else if (ev.kind == 1) {
      referee_->OnDowngrade(self_, ev.p);
    } else {
      referee_->OnInstall(self_, ev.p, ev.version, Access::kRead);
    }
  }
  ctx.Reply({});
}

void Host::RunManagerRecovery() {
  const SimTime t0 = rt_.Now();
  // Crashing AGAIN mid-recovery spawns a fresh recovery for the new life;
  // this one is then a zombie and must not touch the re-wiped state (a
  // zombie reinit would double-initialize pages the new life also
  // reinitializes, and a zombie `recovering_ = false` would open the
  // request gates while the new rebuild is still collecting claims).
  // Every mutation below re-checks the life captured here.
  std::uint32_t life;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
  }
  TraceEv(trace::EventKind::kRecoveryStart, trace::kNoPage, 0, 0,
          endpoint_.incarnation());
  struct Claim {
    PageNum page = 0;
    std::uint64_t version = 0;
    Access access = Access::kNone;
    bool owned = false;
    bool retained = false;
    std::uint64_t op_id = 0;
    bool op_is_write = false;
    std::uint64_t op_new_version = 0;
    net::HostId host = 0;
    bool manages = false;  // dynamic: claimant holds the migrated entry
  };
  std::vector<Claim> claims;
  std::vector<net::HostId> unanswered;
  for (net::HostId h = 0; h < num_hosts_; ++h) {
    if (h != self_) unanswered.push_back(h);
  }
  for (int round = 0;; ++round) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_) return;
    }
    // A host that is down right now restarts with amnesia: it has nothing
    // to claim, so it counts as answered-empty.
    std::erase_if(unanswered, [&](net::HostId h) {
      return net_.HostDown(h, rt_.Now());
    });
    if (unanswered.empty()) break;
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "manager recovery query exhausted retries");
    if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
    stats_.Inc("dsm.recovery_queries",
               static_cast<std::int64_t>(unanswered.size()));
    TraceEv(trace::EventKind::kRecoveryQuery, trace::kNoPage, 0, 0,
            static_cast<std::int64_t>(unanswered.size()), round);
    auto acks = endpoint_.MultiCallWithStatus(unanswered, kOpRecoveryQuery,
                                              {}, net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return;
    std::set<std::size_t> timed_out(acks.timed_out.begin(),
                                    acks.timed_out.end());
    std::vector<net::HostId> next;
    for (std::size_t i = 0; i < unanswered.size(); ++i) {
      if (timed_out.count(i) != 0) {
        next.push_back(unanswered[i]);
        continue;
      }
      const base::Buffer flat = acks.replies[i].Flatten();
      base::WireReader r(flat.span());
      const std::uint16_t n = r.U16();
      for (std::uint16_t k = 0; k < n && r.ok(); ++k) {
        Claim c;
        c.page = r.U32();
        c.version = r.U64();
        c.access = AccessFromByte(r.U8());
        const std::uint8_t flags = r.U8();
        c.owned = (flags & 1) != 0;
        c.retained = (flags & 2) != 0;
        c.op_id = r.U64();
        c.op_is_write = r.U8() != 0;
        c.op_new_version = r.U64();
        if (dir_.dynamic()) {
          c.manages = (flags & 4) != 0;
          r.U16();  // type: the rebuilt entry keeps its re-applied type set
          r.U32();  // alloc_bytes: likewise
        }
        c.host = unanswered[i];
        if (r.ok()) claims.push_back(c);
      }
      if (!r.ok()) stats_.Inc("dsm.malformed");
    }
    unanswered = std::move(next);
  }
  stats_.Inc("dsm.recovery_claims",
             static_cast<std::int64_t>(claims.size()));

  std::map<PageNum, std::vector<const Claim*>> by_page;
  for (const Claim& c : claims) {
    if (c.page < ptable_.num_pages() && dir_.BaseManagedHere(c.page)) {
      by_page[c.page].push_back(&c);
    }
  }
  struct Out {
    net::HostId dst = 0;
    PageNum p = 0;
    std::uint8_t mode = 0;
    std::uint64_t version = 0;
  };
  std::vector<Out> outs;
  // Pages reinitialized (referee OnReinit after the lock): quiet initial
  // restores and policy-reinitialized losses alike.
  std::vector<PageNum> reinits;
  std::vector<PageNum> rebuilt_pages;
  std::int64_t lost = 0;
  std::int64_t adopted = 0;
  std::int64_t forwarded = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    auto rebuild = [&](PageNum p, ManagerEntry& m) {
      m.busy = false;
      m.pending.clear();  // queued requesters re-send after their timeouts
      m.copyset.clear();
      const Claim* infl = nullptr;
      bool evidence = false;
      std::vector<const Claim*> valid;
      std::uint64_t vmax = 0;
      if (auto it = by_page.find(p); it != by_page.end()) {
        for (const Claim* c : it->second) {
          if (c->version > 0 || c->op_id != 0) evidence = true;
          if (c->access != Access::kNone || c->retained) {
            valid.push_back(c);
            vmax = std::max(vmax, c->version);
          }
          if (c->op_id != 0 && (infl == nullptr || c->op_id > infl->op_id)) {
            infl = c;
          }
        }
      }
      if (valid.empty() && infl == nullptr) {
        // No copy survives anywhere. Without evidence the page was simply
        // never shared (every page starts owned by its manager): restore
        // the initial placement quietly. With evidence, the whole history
        // died in the crash: the lost-page policy applies.
        if (evidence) {
          MERMAID_CHECK_MSG(
              cfg_.lost_page_policy == SystemConfig::LostPagePolicy::kReinitZero,
              "page lost in manager crash: every copy died");
          stats_.Inc("dsm.recovery_pages_lost");
          ++lost;
        }
        m.owner = self_;
        m.copyset.insert(self_);
        m.version = 0;
        LocalPageEntry& e = ptable_.Local(p);
        e.access = Access::kRead;
        e.owned = true;
        e.version = 0;
        e.retained = false;
        e.type = m.type;
        e.alloc_bytes = m.alloc_bytes;
        const std::size_t base = static_cast<std::size_t>(p) * page_bytes_;
        const std::size_t end =
            std::min<std::size_t>(base + page_bytes_, mem_.size());
        std::fill(mem_.begin() + base, mem_.begin() + end, 0);
        reinits.push_back(p);
        return;
      }
      rebuilt_pages.push_back(p);
      // Arbitrate the surviving copies: highest version wins; among those,
      // prefer a claimed owner-writer, then a claimed owner, then any live
      // copy, then a retained image; lowest host id breaks ties.
      auto rank = [](const Claim* c) {
        if (c->owned && c->access == Access::kWrite) return 3;
        if (c->owned) return 2;
        if (c->access != Access::kNone) return 1;
        return 0;
      };
      const bool adopt = infl != nullptr && infl->op_new_version >= vmax;
      const Claim* winner = nullptr;
      for (const Claim* c : valid) {
        if (c->version < vmax) continue;
        if (winner == nullptr || rank(c) > rank(winner) ||
            (rank(c) == rank(winner) && c->host < winner->host)) {
          winner = c;
        }
      }
      if (winner != nullptr) {
        m.owner = winner->host;
        m.version = vmax;
        for (const Claim* c : valid) {
          // The adopted in-flight grant's install depends on the local state
          // its claimant reported (a read copy to upgrade, a retained image
          // to re-animate). A drop/downgrade would wipe that state out from
          // under the pending install — leave the claimant alone and let
          // the transfer's confirm settle owner and copyset.
          const bool pending_install = adopt && c->host == infl->host;
          if (c->version < vmax) {
            // Stale copy: drop it (and any retained image with it).
            if (!pending_install) outs.push_back({c->host, p, 0, vmax});
            continue;
          }
          if (c == winner) {
            m.copyset.insert(c->host);
            outs.push_back({c->host, p, 2, vmax});
            continue;
          }
          if (c->access == Access::kNone) {
            // A retained image that lost the arbitration is a dangling
            // pre-crash grant artifact: clear it.
            if (!pending_install) outs.push_back({c->host, p, 0, vmax});
            continue;
          }
          m.copyset.insert(c->host);
          if (c->owned || c->access == Access::kWrite) {
            // Duplicate owner/writer: downgrade and disown, keep the copy.
            if (!pending_install) outs.push_back({c->host, p, 1, vmax});
          }
        }
      }
      if (adopt) {
        // A host holds a decoded-but-unconfirmed grant for this page: adopt
        // it as the busy transfer so its confirm commits normally (or the
        // janitor probes it out if the claimant died meanwhile).
        if (winner == nullptr) {
          m.owner = infl->host;
          m.version = infl->op_new_version;
        }
        m.busy = true;
        m.busy_op_id = infl->op_id;
        m.busy_requester = infl->host;
        m.busy_is_write = infl->op_is_write;
        m.busy_new_version = infl->op_new_version;
        m.busy_since = rt_.Now();
        ++adopted;
        stats_.Inc("dsm.recovery_inflight_adopted");
      }
    };
    for (PageNum p : dir_.ManagedPages()) {
      ManagerEntry* mp = dir_.FindManager(p);
      if (mp == nullptr) continue;
      if (dir_.dynamic()) {
        // A survivor claiming `manages` holds the live migrated entry for
        // this base page: this host is only its rally point again. Reinstall
        // the forward pointer instead of seizing management back.
        const Claim* live_mgr = nullptr;
        if (auto it = by_page.find(p); it != by_page.end()) {
          for (const Claim* c : it->second) {
            if (c->manages &&
                (live_mgr == nullptr || c->host < live_mgr->host)) {
              live_mgr = c;
            }
          }
        }
        if (live_mgr != nullptr) {
          dir_.EraseManager(p);
          dir_.SetForward(p, live_mgr->host, IncOf(live_mgr->host));
          dir_.LearnManager(p, live_mgr->host, IncOf(live_mgr->host));
          ++forwarded;
          continue;
        }
      }
      rebuild(p, *mp);
    }
    if (forwarded > 0) stats_.Inc("dsm.recovery_forwards", forwarded);
    // Referee notification stays under the lock: a crash cannot interpose
    // between the wipe check above and the reinit becoming visible (the
    // wipe itself needs state_mu_), so the referee never records a reinit
    // from a life that has already been wiped away.
    for (PageNum p : reinits) {
      if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
    }
  }
  for (PageNum p : rebuilt_pages) {
    TraceEv(trace::EventKind::kRecoveryRebuild, p, 0, 0);
  }

  // Apply the arbitration on the claimants. Reliable delivery matters for
  // modes 0/1 (a missed demote leaves a stale owner or duplicate writer
  // behind), so each batch is a bounded-retry call, skipped only when the
  // destination itself died (amnesia voids the demote anyway).
  std::map<net::HostId, std::vector<Out>> by_dst;
  for (const Out& o : outs) by_dst[o.dst].push_back(o);
  for (const auto& [dst, cmds] : by_dst) {
    base::WireWriter w;
    w.U16(static_cast<std::uint16_t>(cmds.size()));
    for (const Out& o : cmds) {
      w.U32(o.p);
      w.U8(o.mode);
      w.U64(o.version);
    }
    const net::Body body = std::move(w).Take();
    for (int round = 0;; ++round) {
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life != life_) return;
      }
      if (net_.HostDown(dst, rt_.Now())) break;
      MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                        "recovery demote exhausted retries");
      if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
      auto res = endpoint_.CallWithStatus(dst, kOpRecoveryDemote, body,
                                          net::MsgKind::kControl,
                                          DsmCallOpts());
      if (res.status != net::CallStatus::kTimedOut) break;
    }
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    recovering_ = false;
  }
  stats_.Hist("dsm.recovery_ms", ToMillis(rt_.Now() - t0));
  TraceEv(trace::EventKind::kRecoveryDone, trace::kNoPage, 0, 0,
          static_cast<std::int64_t>(rebuilt_pages.size()), lost);
  (void)adopted;
}

// --------------------------------------------------------------------------
// Dynamic directory: migration daemon, handshake, and entry reclaim
// --------------------------------------------------------------------------

void Host::MigrationDaemon() {
  for (;;) {
    auto job = migrate_chan_.Recv();
    if (!job.has_value()) return;  // engine shutdown
    if (job->reclaim) {
      RunReclaim(job->page);
    } else {
      RunMigration(job->page, job->target);
    }
  }
}

void Host::RunMigration(PageNum p, net::HostId target) {
  // Snapshot the frozen entry. ManagerCommit set `migrating` under the lock
  // before queueing this job; that flag blocks every grant path, so the
  // snapshot cannot go stale while the handshake is in flight. The target is
  // the owner of record: migration triggers only on its committed write.
  std::uint64_t version = 0;
  arch::TypeId type = arch::TypeRegistry::kChar;
  std::uint32_t alloc_bytes = 0;
  std::vector<net::HostId> copyset;
  bool aborted = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* m = dir_.FindManager(p);
    if (m == nullptr || !m->migrating || m->busy) return;  // crash-wiped
    if (recovering_ ||
        (cfg_.crash_recovery && net_.HostDown(target, rt_.Now()))) {
      m->migrating = false;
      aborted = true;
    } else {
      version = m->version;
      type = m->type;
      alloc_bytes = m->alloc_bytes;
      copyset.assign(m->copyset.begin(), m->copyset.end());
    }
  }
  if (aborted) {
    stats_.Inc("dsm.mgr_migrate_aborted");
    ManagerDrain(p);
    return;
  }
  base::WireWriter w;
  w.U32(p);
  w.U64(version);
  w.U16(static_cast<std::uint16_t>(type));
  w.U32(alloc_bytes);
  w.U16(static_cast<std::uint16_t>(copyset.size()));
  for (net::HostId h : copyset) w.U16(h);
  auto resp = endpoint_.CallWithStatus(target, kOpMgrMigrate,
                                       std::move(w).Take(),
                                       net::MsgKind::kControl, DsmCallOpts());
  if (resp.status == net::CallStatus::kShutdown) return;
  bool accepted = false;
  if (resp.status == net::CallStatus::kOk) {
    const base::Buffer flat = resp.body.Flatten();
    base::WireReader r(flat.span());
    const std::uint8_t verdict = r.U8();
    accepted = r.ok() && verdict == 0;
  }
  std::deque<PendingTransfer> moved;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ManagerEntry* m = dir_.FindManager(p);
    if (m == nullptr || !m->migrating) return;  // crash-wiped mid-handshake
    m->migrating = false;
    if (accepted) {
      moved = std::move(m->pending);
      dir_.EraseManager(p);
      dir_.SetForward(p, target, IncOf(target));
      dir_.LearnManager(p, target, IncOf(target));
    }
  }
  if (!accepted) {
    // The target refused (raced state change, amnesiac restart) or never
    // answered: thaw the entry and keep serving from here.
    stats_.Inc("dsm.mgr_migrate_rejected");
    ManagerDrain(p);
    return;
  }
  stats_.Inc("dsm.mgr_migrations");
  TraceEv(trace::EventKind::kMgrMigrate, p, 0,
          TraceParent(trace::MgrMigrateKey(p)), target, 0);
  // Parked requesters chase the entry to its new manager (reply duty moves
  // with the forward); parked local faults wake on the op_id==0 sentinel and
  // re-dispatch through the remote path.
  for (PendingTransfer& t : moved) {
    if (t.remote.has_value()) {
      base::WireWriter fw;
      fw.U8(kToManager);
      fw.U32(p);
      fw.U8(t.has_copy ? 1 : 0);
      fw.U8(0);  // fresh forwarding-hop budget
      t.remote->Forward(target, std::move(fw).Take());
    } else {
      t.local_grant.Send(ManagerGrant{});
    }
  }
}

void Host::HandleMgrMigrate(net::RequestContext ctx) {
  base::WireReader r(ctx.body());
  const PageNum p = r.U32();
  const std::uint64_t version = r.U64();
  const arch::TypeId type = static_cast<arch::TypeId>(r.U16());
  const std::uint32_t alloc_bytes = r.U32();
  const std::uint16_t n = r.U16();
  std::set<net::HostId> copyset;
  for (std::uint16_t i = 0; i < n; ++i) copyset.insert(r.U16());
  if (!r.ok() || !dir_.dynamic() || p >= ptable_.num_pages()) {
    stats_.Inc("dsm.malformed");
    return;
  }
  rt_.Delay(profile_->server_op_cost);
  bool accept = false;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    const LocalPageEntry& e = ptable_.Local(p);
    // Adopt only when the local copy is exactly the committed owned page the
    // source snapshotted: an amnesiac restart or any interleaved change
    // makes this host refuse, and the source keeps the entry.
    if (!recovering_ && dir_.FindManager(p) == nullptr && e.owned &&
        e.access != Access::kNone && e.version == version) {
      ManagerEntry& m = dir_.AdoptManager(p);
      m.owner = self_;
      m.copyset = std::move(copyset);
      m.copyset.insert(self_);
      m.version = version;
      m.type = type;
      m.alloc_bytes = alloc_bytes;
      // The live entry supersedes any stale forward or learned location.
      dir_.ClearForward(p);
      dir_.ForgetManager(p);
      accept = true;
      // Referee + trace stay under the lock so no grant from the fresh
      // entry can interleave before the migration is recorded.
      const std::uint64_t ev =
          TraceEv(trace::EventKind::kMgrMigrate, p, 0,
                  TraceParent(trace::MgrMigrateKey(p)), ctx.origin(), 1);
      TraceBind(trace::MgrMigrateKey(p), ev);
      if (referee_ != nullptr) referee_->OnMgrMigrate(ctx.origin(), self_, p);
    }
  }
  stats_.Inc(accept ? "dsm.mgr_migrate_adopted" : "dsm.mgr_migrate_refused");
  base::WireWriter w;
  w.U8(accept ? 0 : 1);
  ctx.Reply(std::move(w).Take());
}

void Host::QueueReclaimLocked(PageNum p) {
  if (!reclaiming_.insert(p).second) return;  // already queued or running
  stats_.Inc("dsm.mgr_reclaims");
  migrate_chan_.Send(MigrateJob{p, 0, /*reclaim=*/true});
}

bool Host::ForwardNotifyLocked(PageNum p, std::uint8_t op,
                               std::span<const std::uint8_t> body) {
  const Directory::Forward* fwd = dir_.ForwardOf(p);
  if (fwd == nullptr) return false;
  base::WireWriter w;
  w.Raw(body);
  endpoint_.Notify(fwd->to, op, std::move(w).Take());
  stats_.Inc("dsm.mgr_notify_forwards");
  return true;
}

void Host::RunReclaim(PageNum p) {
  // The manager this page's entry migrated to died with the entry. This host
  // holds the dangling forward pointer, so it rebuilds the entry locally
  // from survivor claims — a one-page version of RunManagerRecovery.
  std::uint32_t life;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    life = life_;
    if (recovering_ || dir_.FindManager(p) != nullptr) {
      // Full recovery owns the rebuild, or a migration adopted the entry
      // here while this job sat in the queue.
      reclaiming_.erase(p);
      return;
    }
  }
  stats_.Inc("dsm.mgr_reclaims_run");
  base::WireWriter qw;
  qw.U16(1);
  qw.U32(p);
  const net::Body qbody = std::move(qw).Take();
  struct Claim {
    std::uint64_t version = 0;
    Access access = Access::kNone;
    bool owned = false;
    bool retained = false;
    std::uint64_t op_id = 0;
    bool op_is_write = false;
    std::uint64_t op_new_version = 0;
    net::HostId host = 0;
    bool manages = false;
    arch::TypeId type = arch::TypeRegistry::kChar;
    std::uint32_t alloc_bytes = 0;
  };
  std::vector<Claim> claims;
  std::vector<net::HostId> unanswered;
  for (net::HostId h = 0; h < num_hosts_; ++h) {
    if (h != self_) unanswered.push_back(h);
  }
  for (int round = 0;; ++round) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      if (life != life_) return;  // crashed meanwhile; the wipe cleaned up
    }
    std::erase_if(unanswered, [&](net::HostId h) {
      return net_.HostDown(h, rt_.Now());
    });
    if (unanswered.empty()) break;
    MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                      "manager reclaim query exhausted retries");
    if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
    auto acks = endpoint_.MultiCallWithStatus(unanswered, kOpRecoveryQuery,
                                              qbody, net::MsgKind::kControl,
                                              DsmCallOpts());
    if (acks.status == net::CallStatus::kShutdown) return;
    std::set<std::size_t> timed_out(acks.timed_out.begin(),
                                    acks.timed_out.end());
    std::vector<net::HostId> next;
    for (std::size_t i = 0; i < unanswered.size(); ++i) {
      if (timed_out.count(i) != 0) {
        next.push_back(unanswered[i]);
        continue;
      }
      const base::Buffer flat = acks.replies[i].Flatten();
      base::WireReader cr(flat.span());
      const std::uint16_t cn = cr.U16();
      for (std::uint16_t k = 0; k < cn && cr.ok(); ++k) {
        Claim c;
        const PageNum cp = cr.U32();
        c.version = cr.U64();
        c.access = AccessFromByte(cr.U8());
        const std::uint8_t flags = cr.U8();
        c.owned = (flags & 1) != 0;
        c.retained = (flags & 2) != 0;
        c.manages = (flags & 4) != 0;
        c.op_id = cr.U64();
        c.op_is_write = cr.U8() != 0;
        c.op_new_version = cr.U64();
        c.type = static_cast<arch::TypeId>(cr.U16());
        c.alloc_bytes = cr.U32();
        c.host = unanswered[i];
        if (cr.ok() && cp == p) claims.push_back(c);
      }
      if (!cr.ok()) stats_.Inc("dsm.malformed");
    }
    unanswered = std::move(next);
  }
  // A live migrated entry surfaced elsewhere (the dead manager had already
  // handed the page on before dying): repoint the forward instead of
  // seizing management.
  const Claim* live_mgr = nullptr;
  for (const Claim& c : claims) {
    if (c.manages && (live_mgr == nullptr || c.host < live_mgr->host)) {
      live_mgr = &c;
    }
  }
  if (live_mgr != nullptr) {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    if (dir_.FindManager(p) == nullptr) {
      dir_.SetForward(p, live_mgr->host, IncOf(live_mgr->host));
      dir_.LearnManager(p, live_mgr->host, IncOf(live_mgr->host));
    }
    reclaiming_.erase(p);
    return;
  }
  struct Out {
    net::HostId dst = 0;
    std::uint8_t mode = 0;  // 0 drop, 1 downgrade+disown, 2 promote
    std::uint64_t version = 0;
  };
  std::vector<Out> outs;
  bool reinit = false;
  bool lost = false;
  // Referee events from self-demotes, reported after the lock (recovery's
  // lock-order rule: state_mu_ -> referee only).
  std::vector<std::pair<std::uint8_t, std::uint64_t>> self_evs;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (life != life_) return;
    if (recovering_ || dir_.FindManager(p) != nullptr) {
      reclaiming_.erase(p);
      return;
    }
    // This host's own copy competes like any survivor's claim.
    {
      const LocalPageEntry& e = ptable_.Local(p);
      Claim c;
      c.host = self_;
      c.version = e.version;
      c.access = (cfg_.release_consistency && e.access == Access::kWrite)
                     ? Access::kRead
                     : e.access;
      c.owned = e.owned;
      c.retained = e.retained;
      c.type = e.type;
      c.alloc_bytes = e.alloc_bytes;
      for (auto it = inflight_ops_.lower_bound({p, 0});
           it != inflight_ops_.end() && it->first.first == p; ++it) {
        c.op_id = it->first.second;
        c.op_is_write = it->second.is_write;
        c.op_new_version = it->second.new_version;
      }
      if (c.version > 0 || c.access != Access::kNone || c.owned ||
          c.retained || c.op_id != 0) {
        claims.push_back(c);
      }
    }
    ManagerEntry& m = dir_.AdoptManager(p);
    dir_.ClearForward(p);
    dir_.ForgetManager(p);
    const Claim* infl = nullptr;
    bool evidence = false;
    std::vector<const Claim*> valid;
    std::uint64_t vmax = 0;
    for (const Claim& c : claims) {
      if (c.version > 0 || c.op_id != 0) evidence = true;
      if (c.access != Access::kNone || c.retained) {
        valid.push_back(&c);
        vmax = std::max(vmax, c.version);
      }
      if (c.op_id != 0 && (infl == nullptr || c.op_id > infl->op_id)) {
        infl = &c;
      }
      m.alloc_bytes = std::max(m.alloc_bytes, c.alloc_bytes);
    }
    if (valid.empty() && infl == nullptr) {
      if (evidence) {
        MERMAID_CHECK_MSG(
            cfg_.lost_page_policy == SystemConfig::LostPagePolicy::kReinitZero,
            "page lost with its migrated manager: every copy died");
        stats_.Inc("dsm.recovery_pages_lost");
        lost = true;
      }
      m.owner = self_;
      m.copyset.insert(self_);
      m.version = 0;
      LocalPageEntry& e = ptable_.Local(p);
      e.access = Access::kRead;
      e.owned = true;
      e.version = 0;
      e.retained = false;
      e.type = m.type;
      e.alloc_bytes = m.alloc_bytes;
      const std::size_t base = static_cast<std::size_t>(p) * page_bytes_;
      const std::size_t end =
          std::min<std::size_t>(base + page_bytes_, mem_.size());
      std::fill(mem_.begin() + base, mem_.begin() + end, 0);
      reinit = true;
      if (referee_ != nullptr) referee_->OnReinit(self_, p, 0);
    } else {
      auto rank = [](const Claim* c) {
        if (c->owned && c->access == Access::kWrite) return 3;
        if (c->owned) return 2;
        if (c->access != Access::kNone) return 1;
        return 0;
      };
      const bool adopt = infl != nullptr && infl->op_new_version >= vmax;
      const Claim* winner = nullptr;
      for (const Claim* c : valid) {
        if (c->version < vmax) continue;
        if (winner == nullptr || rank(c) > rank(winner) ||
            (rank(c) == rank(winner) && c->host < winner->host)) {
          winner = c;
        }
      }
      if (winner != nullptr) {
        m.owner = winner->host;
        m.version = vmax;
        m.type = winner->type;
        for (const Claim* c : valid) {
          const bool pending_install = adopt && c->host == infl->host;
          if (c->version < vmax) {
            if (!pending_install) outs.push_back({c->host, 0, vmax});
            continue;
          }
          if (c == winner) {
            m.copyset.insert(c->host);
            outs.push_back({c->host, 2, vmax});
            continue;
          }
          if (c->access == Access::kNone) {
            if (!pending_install) outs.push_back({c->host, 0, vmax});
            continue;
          }
          m.copyset.insert(c->host);
          if (c->owned || c->access == Access::kWrite) {
            if (!pending_install) outs.push_back({c->host, 1, vmax});
          }
        }
      }
      if (adopt) {
        if (winner == nullptr) {
          m.owner = infl->host;
          m.version = infl->op_new_version;
          m.type = infl->type;
        }
        m.busy = true;
        m.busy_op_id = infl->op_id;
        m.busy_requester = infl->host;
        m.busy_is_write = infl->op_is_write;
        m.busy_new_version = infl->op_new_version;
        m.busy_since = rt_.Now();
        stats_.Inc("dsm.recovery_inflight_adopted");
      }
      // Demotes addressed to this host apply inline, mirroring
      // HandleRecoveryDemote (fencing included).
      std::erase_if(outs, [&](const Out& o) {
        if (o.dst != self_) return false;
        LocalPageEntry& e = ptable_.Local(p);
        if (o.mode == 0 || o.mode == 1) {
          for (auto it = inflight_ops_.lower_bound({p, 0});
               it != inflight_ops_.end() && it->first.first == p;) {
            FenceOpLocked(it->first.first, it->first.second);
            it = inflight_ops_.erase(it);
          }
        }
        if (o.mode == 0) {
          if (e.access != Access::kNone) {
            self_evs.push_back({0, 0});
            stats_.Inc("dsm.recovery_demotions");
          }
          e.access = Access::kNone;
          e.owned = false;
          e.retained = false;
          DropConvertCacheLocked(p);
        } else if (o.mode == 1) {
          if (e.access == Access::kWrite) {
            e.access = Access::kRead;
            self_evs.push_back({1, 0});
            stats_.Inc("dsm.recovery_demotions");
          }
          e.owned = false;
        } else {
          if (e.access == Access::kNone && e.retained) {
            e.access = Access::kRead;
            e.retained = false;
            self_evs.push_back({2, e.version});
          } else if (e.access == Access::kWrite) {
            e.access = Access::kRead;
            self_evs.push_back({1, 0});
          }
          if (e.access != Access::kNone) {
            e.owned = true;
            stats_.Inc("dsm.recovery_promotions");
          }
        }
        return true;
      });
    }
    reclaiming_.erase(p);
  }
  for (const auto& [kind, version] : self_evs) {
    if (referee_ == nullptr) break;
    if (kind == 0) {
      referee_->OnInvalidate(self_, p);
    } else if (kind == 1) {
      referee_->OnDowngrade(self_, p);
    } else {
      referee_->OnInstall(self_, p, version, Access::kRead);
    }
  }
  if (reinit) {
    TraceEv(trace::EventKind::kRecoveryLost, p, 0, 0, lost ? 1 : 0);
  } else {
    TraceEv(trace::EventKind::kRecoveryRebuild, p, 0, 0, 1 /* reclaim */);
  }
  // Apply the arbitration on remote claimants; reliable like recovery's
  // demote delivery, skipped when the destination itself died.
  std::map<net::HostId, std::vector<Out>> by_dst;
  for (const Out& o : outs) by_dst[o.dst].push_back(o);
  for (const auto& [dst, cmds] : by_dst) {
    base::WireWriter w;
    w.U16(static_cast<std::uint16_t>(cmds.size()));
    for (const Out& o : cmds) {
      w.U32(p);
      w.U8(o.mode);
      w.U64(o.version);
    }
    const net::Body body = std::move(w).Take();
    for (int round = 0;; ++round) {
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (life != life_) return;
      }
      if (net_.HostDown(dst, rt_.Now())) break;
      MERMAID_CHECK_MSG(round <= cfg_.fault_retry_limit,
                        "reclaim demote exhausted retries");
      if (round > 0) rt_.Delay(FaultBackoff(cfg_, round));
      auto res = endpoint_.CallWithStatus(dst, kOpRecoveryDemote, body,
                                          net::MsgKind::kControl,
                                          DsmCallOpts());
      if (res.status != net::CallStatus::kTimedOut) break;
    }
  }
  ManagerDrain(p);
}

}  // namespace mermaid::dsm
