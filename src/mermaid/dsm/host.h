// Per-host DSM engine: Li's MRSW write-invalidate protocol with fixed
// distributed managers, extended for heterogeneity (Mermaid, §2).
//
// Role split, mirroring the paper:
//   - Fault path (application process): detects insufficient access on a
//     typed load/store, pays the Table-1 fault-handling cost, obtains a
//     transfer grant from the page's manager (a protocol Call, or a direct
//     state operation when the faulting host manages the page), fetches the
//     page from the owner, converts it if the owner's representation
//     differs, performs write invalidation by multicast, and confirms the
//     completed transfer to the manager.
//   - Manager role (fixed: page p is managed by host p mod N): knows owner
//     and copyset, serializes transfers per page (busy + pending queue, as
//     in Li's algorithm — the entry stays locked until the requester's
//     confirmation), and never blocks: remote requests are forwarded or
//     answered inline, local requests are granted through a channel.
//   - Owner role (request handler): serves page data (only the allocated
//     extent when partial transfer is on), downgrading itself on read
//     fetches and relinquishing on write fetches.
//
// Page-size policies (§2.4): the coherence unit is the DSM page; a fault on
// a host whose VM page is larger acquires every DSM page of the enclosing
// VM page (the "smallest page size" algorithm's grouped fill), and a host
// whose VM page is smaller gains all its VM pages when the single DSM page
// arrives (the "largest page size" algorithm's grouping).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/base/buffer.h"
#include "mermaid/base/stats.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/referee.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/runtime.h"
#include "mermaid/sync/sync.h"

namespace mermaid::dsm {

class Host {
 public:
  // `placement` is the System-wide base manager table
  // (Directory::BuildPlacement over num_hosts and the region's pages).
  Host(sim::Runtime& rt, net::Network& net, const SystemConfig& cfg,
       const arch::TypeRegistry& registry, net::HostId self,
       const arch::ArchProfile* profile, std::uint16_t num_hosts,
       std::uint32_t page_bytes, CoherenceReferee* referee,
       std::shared_ptr<const Directory::Placement> placement);

  // Registers protocol handlers and starts the receive daemon.
  void Start();

  // --- application-facing API (call from processes on this host) ---------

  // Typed access to shared memory. Representation-faithful: the value is
  // decoded from / encoded into this host's native memory image. Faults in
  // the page (group) transparently when access is insufficient.
  template <typename T>
  T Read(GlobalAddr addr) {
    for (;;) {
      const PageNum p = EnsureElementAccess(addr, sizeof(T), Access::kRead);
      std::lock_guard<std::mutex> lk(state_mu_);
      // Access can be lost between EnsureAccess and this lock (an
      // invalidation, or a release-consistency flush demoting the page);
      // loading without it would read through a revoked mapping.
      if (ptable_.Local(p).access < Access::kRead) continue;
      if (cfg_.referee_check_access && referee_ != nullptr) {
        referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                              Access::kRead);
      }
      return arch::LoadScalar<T>(*profile_, mem_.data() + addr);
    }
  }

  template <typename T>
  void Write(GlobalAddr addr, T value) {
    for (;;) {
      const PageNum p = EnsureElementAccess(addr, sizeof(T), Access::kWrite);
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access < Access::kWrite) continue;
      if (cfg_.referee_check_access && referee_ != nullptr) {
        referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                              Access::kWrite);
      }
      arch::StoreScalar<T>(*profile_, mem_.data() + addr, value);
      return;
    }
  }

  // Bulk typed access: semantically identical to element-wise Read/Write
  // loops (same faults, same page-granularity coherence, same
  // representation decoding) but amortizes the access check and runs one
  // block codec kernel per page run — the simulated equivalent of a tight
  // load/store loop of native instructions. Elements must not straddle DSM
  // pages (the typed allocator guarantees power-of-two strides, so they
  // never do).
  template <typename T>
  void ReadBlock(GlobalAddr addr, std::size_t count, T* out) {
    while (count > 0) {
      const PageNum p = EnsureElementAccess(addr, sizeof(T), Access::kRead);
      const GlobalAddr page_end =
          (static_cast<GlobalAddr>(p) + 1) * page_bytes_;
      const std::size_t n =
          std::min<std::size_t>(count, (page_end - addr) / sizeof(T));
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (ptable_.Local(p).access < Access::kRead) continue;  // refault
        if (cfg_.referee_check_access && referee_ != nullptr) {
          referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                                Access::kRead);
        }
        arch::LoadBlock<T>(*profile_, mem_.data() + addr, n, out);
      }
      out += n;
      addr += n * sizeof(T);
      count -= n;
    }
  }

  template <typename T>
  void WriteBlock(GlobalAddr addr, const T* in, std::size_t count) {
    while (count > 0) {
      const PageNum p = EnsureElementAccess(addr, sizeof(T), Access::kWrite);
      const GlobalAddr page_end =
          (static_cast<GlobalAddr>(p) + 1) * page_bytes_;
      const std::size_t n =
          std::min<std::size_t>(count, (page_end - addr) / sizeof(T));
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (ptable_.Local(p).access < Access::kWrite) continue;  // refault
        if (cfg_.referee_check_access && referee_ != nullptr) {
          referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                                Access::kWrite);
        }
        arch::StoreBlock<T>(*profile_, mem_.data() + addr, in, n);
      }
      in += n;
      addr += n * sizeof(T);
      count -= n;
    }
  }

  // Models `units` of application work on this host's CPU.
  void Compute(double units, bool floating_point = false);

  // Pre-faults a page for the given access (the paper's applications touch
  // data in page units anyway; this is a convenience for benchmarks).
  void Touch(GlobalAddr addr, Access access) {
    EnsureAccess(PageOf(addr), access);
  }

  PageNum PageOf(GlobalAddr addr) const {
    return static_cast<PageNum>(addr / page_bytes_);
  }

  net::HostId id() const { return self_; }
  const arch::ArchProfile& profile() const { return *profile_; }
  std::uint32_t page_bytes() const { return page_bytes_; }
  base::StatsRegistry& stats() { return stats_; }
  net::Endpoint& endpoint() { return endpoint_; }
  sim::Runtime& runtime() { return rt_; }

  // Attaches the system-wide protocol tracer (and propagates it to this
  // host's endpoint / fragmentation layers).
  void SetTracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    endpoint_.SetTracer(tracer);
  }

  // Test hooks.
  LocalPageEntry LocalEntrySnapshot(PageNum p);
  // Release-consistency test hooks: live twin count / probable-owner hint.
  std::size_t RcTwinCount();
  net::HostId HintSnapshot(PageNum p);

  // --- release consistency (System wires these as the sync client's
  // --- release/acquire hooks; see SystemConfig::release_consistency) ------

  // Release point: flushes every twin (and home-dirty page) to its home and
  // returns the accumulated write notices to publish with the sync op.
  std::vector<sync::WriteNotice> RcDrainNotices();
  // Acquire point: invalidates the local read copies made stale by the
  // notices. `reset` means the server's bounded notice log was truncated
  // past this client's cursor — every non-twinned, non-home read copy is
  // dropped conservatively.
  void RcApplyNotices(const std::vector<sync::WriteNotice>& notices,
                      bool reset);

  // Used by the System's allocation worker to push authoritative type and
  // extent information to this host in its manager role. Returns the host
  // the page's management migrated to when this host no longer manages it
  // (dynamic directory) — the caller forwards the type-set there.
  std::optional<net::HostId> ApplyTypeSet(PageNum p, arch::TypeId type,
                                          std::uint32_t alloc_bytes);

  // Pure base-placement lookup (fixed modulo or consistent-hash ring); the
  // same on every host, safe without locks.
  net::HostId BaseManagerOf(PageNum p) const {
    return dir_.BaseManagerOf(p);
  }

  // Transfers granted in this host's manager role over its lifetime (plain
  // counter, not a stats key, so knobs-off registries stay bit-identical).
  // Feeds bench_directory's manager-load Gini coefficient.
  std::uint64_t ManagerGrantsTotal();

  // Quiescence accounting for chaos tests: adds this host's still-busy
  // manager entries and queued transfers to the counters.
  void CountManagerLoad(std::uint64_t* busy, std::uint64_t* pending);

 private:
  friend class System;

  struct FetchReply {
    std::uint64_t op_id = 0;
    std::uint64_t data_version = 0;
    std::uint64_t new_version = 0;
    net::HostId owner = 0;
    arch::TypeId type = 0;
    std::uint32_t alloc_bytes = 0;
    std::vector<net::HostId> to_invalidate;
    bool has_data = false;
    // Representation class the payload is encoded in (arch::RepClassByte).
    // When the owner pre-converted for the requester this is the
    // requester's class and the receiver skips the codec.
    std::uint8_t data_rep = 0;
    bool sender_converted = false;
    bool from_cache = false;  // served from the owner's conversion cache
    // The addressed host restarted with amnesia and no longer holds the
    // page: the requester must report the loss to the manager and retry.
    bool owner_lost = false;
    // Dynamic directory: the manager that granted this transfer (wire field
    // only when directory_mode == kDynamic). The requester confirms /
    // rejects / reports losses to it and learns it as the page's location.
    net::HostId mgr = 0;
    // The addressed host does not manage the page (stale learned location or
    // an exhausted forwarding chain): `owner` carries the suggested manager
    // and the requester re-routes. No grant fields are valid.
    bool mgr_redirect = false;
    base::BufferChain data;
  };

  // One protocol round's outcome: kDone re-checks access, kRetry backs off
  // and refaults, kShutdown unwinds the thread.
  enum class FaultOutcome { kDone, kRetry, kShutdown };

  // Per-VM-fault telemetry: protocol messages on the critical path and
  // blocking request round trips, summed over the fault's DSM pages. Feeds
  // the dsm.vm_fault_hops / dsm.vm_fault_rtts histograms that quantify the
  // fast paths' savings.
  struct FaultTelemetry {
    std::int64_t hops = 0;
    std::int64_t rtts = 0;
  };

  // One write-group page whose invalidation and finalization were deferred
  // (coalesced invalidation): the page is installed read-only and parked
  // here; after every page of the VM fault holds its grant, one batched
  // invalidation round runs and each page is finalized and confirmed.
  struct DeferredWrite {
    PageNum page = 0;
    FetchReply reply;
    // The manager that granted this page (confirm target after the flush).
    net::HostId manager = 0;
    // Host life at park time; a crash between park and flush fences the
    // entry (the wiped state can no longer back the grant).
    std::uint32_t life = 0;
  };

  // Outcome of CompleteTransfer: kFenced means this host crashed while the
  // transfer was in flight — the grant must NOT be confirmed (the wiped
  // state cannot back it) and the caller simply refaults. kRejected means
  // the grant arrived without data but no local copy exists to back it (the
  // manager trusted a claim that a crash or revoke made stale); the caller
  // must free the grant at the manager and refault with the truth.
  enum class TransferResult { kOk, kFenced, kRejected, kShutdown };

  // --- fault path ---------------------------------------------------------
  void EnsureAccess(PageNum p, Access needed);
  // EnsureAccess for the page holding the `size`-byte element at `addr`;
  // returns that page. An element that straddles two DSM pages fails
  // loudly: a block accessor would find no whole element left in the page
  // and spin, and a scalar one would touch the next page's bytes without
  // that page's access check.
  PageNum EnsureElementAccess(GlobalAddr addr, std::size_t size,
                              Access needed);
  // One VM-level fault: acquires every DSM page of the enclosing VM page
  // that lacks `needed` access.
  void FaultGroup(PageNum p, Access needed);
  // One DSM-page protocol round. With `deferred` non-null (coalesced
  // invalidation), a granted write parks in `deferred` instead of
  // invalidating and finalizing.
  // The `life` parameter of the fault helpers is the host life (crash
  // count) captured when the round started; CompleteTransfer fences the
  // install when it no longer matches (the thread is a pre-crash zombie).
  void FaultOne(PageNum p, Access needed, FaultTelemetry* telem,
                std::vector<DeferredWrite>* deferred);
  FaultOutcome FaultViaLocalManager(PageNum p, bool is_write,
                                    FaultTelemetry* telem,
                                    std::vector<DeferredWrite>* deferred,
                                    std::uint32_t life);
  FaultOutcome FaultViaRemoteManager(PageNum p, bool is_write,
                                     FaultTelemetry* telem,
                                     std::vector<DeferredWrite>* deferred,
                                     std::uint32_t life);
  // Probable-owner fast path: one direct fetch round against the hinted
  // owner. Returns the outcome, or nullopt when the normal manager path
  // should run (no hint, hint timed out, or the serve was fenced).
  std::optional<FaultOutcome> FaultViaHint(PageNum p, FaultTelemetry* telem,
                                           std::uint32_t life);
  // Batched group fetch for a read VM fault spanning [first, last): one
  // kOpGroupFetch call per remote manager / distinct owner; pages the batch
  // cannot serve (busy entries, losses) fall back to FaultOne. False on
  // shutdown.
  bool FaultGroupFetch(PageNum first, PageNum last, FaultTelemetry* telem);
  // Coalesced-invalidation tail: unions the deferred pages' copyset targets,
  // runs one batched invalidation round per target, then finalizes and
  // confirms every page. False on shutdown.
  bool FlushDeferredWrites(std::vector<DeferredWrite> deferred,
                           FaultTelemetry* telem);
  // Install + invalidate + (write-)grant; shared tail of both fault
  // variants. With `deferred` non-null a write parks instead of finalizing.
  TransferResult CompleteTransfer(PageNum p, bool is_write,
                                  const FetchReply& reply,
                                  std::vector<DeferredWrite>* deferred,
                                  std::uint32_t life);
  // The locked write-finalize step (write access, version bump, referee
  // write grant). Caller must have completed the page's invalidations.
  // False when fenced by a crash (caller skips the confirm).
  bool FinalizeWrite(PageNum p, const FetchReply& reply, std::uint32_t life);
  // Reliable write invalidation: re-multicasts to unacked targets until all
  // ack (bounded rounds; aborts loudly when exhausted). False on shutdown.
  // `op_id`/`parent_ev` only feed the trace (the install event that caused
  // this invalidation round).
  bool InvalidateCopies(PageNum p, const std::vector<net::HostId>& hosts,
                        std::uint64_t op_id, std::uint64_t parent_ev);

  // --- release consistency ------------------------------------------------
  // Outcome of RcTwinPage: kOk = twin made (or home page marked dirty) and
  // write access granted locally; kNoCopy = the read copy vanished between
  // the read fault and the twin attempt (caller refaults); kCapacity = the
  // twin cap is reached (caller flushes and retries).
  enum class RcTwinResult { kOk, kNoCopy, kCapacity };
  // Write fault under release consistency: instead of a global invalidate,
  // snapshot the page into a twin (or, when this host IS the page's home,
  // mark it home-dirty — the working copy is the master, no buffer needed)
  // and take write access locally. Requires a valid read copy.
  RcTwinResult RcTwinPage(PageNum p);
  // Release: diffs every twin against the working copy, ships the dirty
  // ranges to each page's home (kOpDiffFlush), commits home-dirty pages in
  // place, demotes the pages back to read access, and appends the resulting
  // write notices to rc_pending_notices_.
  void RcFlushTwins();
  // Commits one flush at the home: bumps the manager + local version,
  // notifies the referee. Stale cached conversions are dropped when
  // `drop_cache`; HandleDiffFlush passes false and instead patches the
  // cached whole-page images with the (converted) diff ranges, so small
  // diffs neither evict nor miss the cache. Caller holds state_mu_ and has
  // verified the entry is not busy. Returns {new, prev} versions.
  std::pair<std::uint64_t, std::uint64_t> RcCommitFlushLocked(
      PageNum p, net::HostId origin, bool drop_cache = true);
  // Re-keys every cached conversion of page p from `prev_version` to
  // `new_version`, patching the flushed byte ranges (already applied to the
  // master copy in this host's representation) into each image via the pure
  // codec. Entries at other versions are dropped. Caller holds state_mu_.
  void PatchConvertCacheLocked(PageNum p, std::uint64_t prev_version,
                               std::uint64_t new_version,
                               const std::vector<std::pair<std::uint32_t,
                                                           std::uint32_t>>&
                                   ranges);
  // Home-side handler for a remote kOpDiffFlush (rx daemon; never blocks):
  // busy-rejects while a transfer is in flight (the writer backs off and
  // retries), deduplicates retransmitted flushes by (origin, flush seq),
  // converts the diff payload when the writer's representation differs,
  // and applies the ranges to the master copy.
  void HandleDiffFlush(net::RequestContext ctx);

  // --- manager role -------------------------------------------------------
  ManagerGrant BuildGrantLocked(PageNum p, net::HostId requester,
                                bool is_write, bool has_copy);
  // Processes one pending transfer (issues grant / forward / direct serve).
  void ManagerIssue(PageNum p, PendingTransfer t);
  void ManagerCommit(PageNum p, std::uint64_t op_id, net::HostId requester,
                     bool is_write);
  void ManagerDrain(PageNum p);
  // Revokes the in-flight grant (p, op_id) if it is still the busy one:
  // frees the entry with owner/copyset/version unchanged and re-drains the
  // pending queue. Used by grant rejects, lease expiry, and the local fault
  // path when its owner fetch times out.
  void ManagerRevoke(PageNum p, std::uint64_t op_id);

  // --- dynamic directory (SystemConfig::directory_mode == kDynamic) -------
  // A unit of work for the migration daemon: ship page p's management to
  // `target` (reclaim == false), or rebuild the entry for a base-managed
  // page whose adopted manager died (reclaim == true).
  struct MigrateJob {
    PageNum page = 0;
    net::HostId target = 0;
    bool reclaim = false;
  };
  // After a committed remote write by `requester`: updates the hot-page
  // vote and decides whether management should follow the writer. On true
  // the caller marks the entry migrating and queues a MigrateJob. Caller
  // holds state_mu_.
  bool ShouldMigrateLocked(ManagerEntry& m, net::HostId requester);
  // Daemon body: drains migrate_chan_.
  void MigrationDaemon();
  void RunMigration(PageNum p, net::HostId target);
  void RunReclaim(PageNum p);
  // Queues a reclaim for base-managed page p unless one is already queued.
  // Caller holds state_mu_.
  void QueueReclaimLocked(PageNum p);
  // Adoption side of the kOpMgrMigrate handshake (rx daemon).
  void HandleMgrMigrate(net::RequestContext ctx);
  // Receive-path forwarding for a manager-role notify that reached a host
  // which migrated the page away: re-notifies the forward target (notifies
  // are at-most-once already, so re-sending cannot double-apply). True when
  // forwarded. Caller holds state_mu_.
  bool ForwardNotifyLocked(PageNum p, std::uint8_t op,
                           std::span<const std::uint8_t> body);

  // --- crash-stop recovery ------------------------------------------------
  // Crash-with-amnesia: resets the endpoint (new incarnation, zombie calls
  // fenced), wipes the page table, hints, conversion cache, memory image,
  // and all fault-path bookkeeping, and marks the manager role as
  // recovering. Parked fault waiters are woken so their threads refault.
  void CrashWipe();
  // Manager-state reconstruction after a restart: queries every live host
  // for its page claims (kOpRecoveryQuery), rebuilds owner/copyset/version
  // for each managed page, demotes duplicate or stale writers, adopts
  // claimed in-flight transfers, and applies SystemConfig::lost_page_policy
  // when the sole copy of a page died. Blocking; run from a recovery daemon.
  void RunManagerRecovery();
  // Shared dead-owner repair: removes `dead_owner` from page p's manager
  // entry and promotes a surviving copy (or applies the lost-page policy).
  // No-op when the report is stale (current owner differs). `op_id` is the
  // reporter's observed in-flight grant (0 = none), cleared if still busy.
  // `drain` re-issues the pending queue after the repair; pass false when
  // the caller is itself about to issue a transfer for this page.
  void HandlePageLostLocal(PageNum p, std::uint64_t op_id,
                           net::HostId dead_owner, bool drain = true);
  // The hinted/recorded incarnation of host h: 0 with crash recovery off
  // (keeps wire images and hint state bit-identical), else the endpoint's
  // current knowledge.
  std::uint32_t IncOf(net::HostId h);

  // --- owner role ---------------------------------------------------------
  // Serves a fetch against the local copy; fills reply fields that depend
  // on the local state and attaches the data (pre-converted for the
  // requester's representation class when the conversion cache is enabled).
  // Caller provides grant info (`mgr` = the granting manager, echoed in the
  // reply under the dynamic directory). State transitions happen under
  // state_mu_; the page copy, codec work, and encode run outside it.
  net::Body EncodeServeReply(PageNum p, net::HostId requester, bool is_write,
                             bool data_needed, std::uint64_t op_id,
                             std::uint64_t data_version,
                             std::uint64_t new_version, arch::TypeId type,
                             std::uint32_t alloc_bytes,
                             const std::vector<net::HostId>& to_invalidate,
                             net::HostId mgr);

  // --- handlers (run in the endpoint's rx daemon; never block) ------------
  void HandleTransferReq(net::RequestContext ctx, bool is_write);
  void HandleOwnerFetch(net::RequestContext ctx, bool is_write);
  void HandleInvalidate(net::RequestContext ctx);
  void HandleConfirm(net::RequestContext ctx);
  void HandleConfirmProbe(net::RequestContext ctx);
  void HandleGrantReject(net::RequestContext ctx);
  void HandleGrantExtend(net::RequestContext ctx);
  // Fast-path handlers (only reachable when the matching knob is on at the
  // sender; each is safe to receive regardless).
  void HandleHintedFetch(net::RequestContext ctx);
  void HandleHintConfirm(net::RequestContext ctx);
  void HandleHintCovered(net::RequestContext ctx);
  void HandleGroupFetch(net::RequestContext ctx);
  void HandleGroupConfirm(net::RequestContext ctx);
  void HandleInvalidateBatch(net::RequestContext ctx);
  // Crash-recovery handlers.
  void HandleRecoveryQuery(net::RequestContext ctx);
  void HandleRecoveryDemote(net::RequestContext ctx);
  void HandlePageLost(net::RequestContext ctx);

  // --- group-fetch wire helpers -------------------------------------------
  // One entry of a kOpGroupFetch request (role is per entry: the same call
  // can carry manager-role misses and owner-role pre-granted fetches).
  struct GroupReqEntry {
    std::uint8_t role = kToManager;
    PageNum page = 0;
    bool has_copy = false;       // kToManager
    std::uint64_t op_id = 0;     // kToOwner grant parameters
    std::uint64_t new_version = 0;
    bool data_needed = true;
    arch::TypeId type = 0;
    std::uint32_t alloc_bytes = 0;
    net::HostId mgr = 0;         // kToOwner: granting manager (dynamic dir)
  };
  // One entry of a kOpGroupFetch reply.
  struct GroupReplyEntry {
    PageNum page = 0;
    // 0 = busy (fall back), 1 = grant, 2 = redirect, 3 = owner lost (the
    // addressed owner restarted with amnesia; redirect.op_id/redirect_owner
    // carry the grant id and dead owner for the kOpPageLost report).
    std::uint8_t status = 0;
    FetchReply fr;            // status 1
    GroupReqEntry redirect;   // status 2 (owner-role request parameters)
    net::HostId redirect_owner = 0;
  };
  // Members (not statics): the dynamic directory adds wire fields that are
  // encoded/decoded only when cfg_.directory_mode == kDynamic, keeping the
  // knobs-off wire image bit-identical.
  net::Body EncodeGroupRequest(const std::vector<GroupReqEntry>& es) const;
  std::vector<GroupReqEntry> DecodeGroupRequest(
      std::span<const std::uint8_t> body, bool* ok) const;
  // Serialized grant entries carry an encoded FetchReply head plus a slice
  // of the shared payload chain; nothing is copied on either side.
  net::Body EncodeGroupReply(std::vector<GroupReplyEntry> es,
                             std::vector<net::Body> grant_bodies) const;
  std::vector<GroupReplyEntry> DecodeGroupReply(
      const base::BufferChain& body) const;

  // --- helpers -------------------------------------------------------------
  // Charges the receiver-side modeled conversion delay and stats for an
  // incoming page; runs the real codec (in place on `data`) only when
  // `run_codec` — when the owner already converted, only the calibrated
  // delay is paid here so Table 3/4 cells are independent of where the
  // codec physically runs.
  void ConvertIncoming(PageNum p, std::span<std::uint8_t> data,
                       arch::TypeId type, const arch::ArchProfile& from,
                       bool run_codec);
  // Drops every conversion-cache entry for page p (counted as evictions).
  // Caller holds state_mu_.
  void DropConvertCacheLocked(PageNum p);
  // Applies one incoming invalidation (single or batched) from `writer` to
  // page p: drops the copy, retained image, cached conversions; learns the
  // writer as the probable owner; poisons any in-flight hinted fetch.
  // Caller holds state_mu_. Returns true when a valid copy was dropped
  // (referee notification included).
  bool ApplyInvalidateLocked(PageNum p, net::HostId writer);
  // Reliable batched invalidation: one kOpInvalidateBatch round per target
  // until every target acks all pages. False on shutdown.
  bool InvalidateBatchCall(const std::vector<PageNum>& pages,
                           std::vector<net::HostId> targets);
  void RecordCompleted(PageNum p, std::uint64_t op_id, net::HostId manager,
                       bool is_write);
  // Adds {p, op_id} to the fenced set (bounded FIFO) so a decoded-but-not-
  // installed grant is discarded instead of installed. Caller holds state_mu_.
  void FenceOpLocked(PageNum p, std::uint64_t op_id);
  net::Body EncodeFetchReply(const FetchReply& r) const;
  FetchReply DecodeFetchReply(const base::BufferChain& body) const;
  net::Endpoint::CallOpts DsmCallOpts() const;

  // Trace hook: records one protocol event on this host at the current sim
  // time; returns the event id (0 when tracing is off).
  std::uint64_t TraceEv(trace::EventKind kind, PageNum p, std::uint64_t op,
                        std::uint64_t parent = 0, std::int64_t a0 = 0,
                        std::int64_t a1 = 0) {
    if (tracer_ == nullptr || !tracer_->enabled()) return 0;
    return tracer_->Record(kind, self_, rt_.Now(), p, op, parent, a0, a1);
  }
  std::uint64_t TraceParent(const trace::CausalKey& key) const {
    if (tracer_ == nullptr || !tracer_->enabled()) return 0;
    return tracer_->Parent(key);
  }
  void TraceBind(const trace::CausalKey& key, std::uint64_t ev) {
    if (tracer_ != nullptr && ev != 0) tracer_->Bind(key, ev);
  }

  sim::Runtime& rt_;
  net::Network& net_;
  const SystemConfig& cfg_;
  const arch::TypeRegistry& registry_;
  net::HostId self_;
  const arch::ArchProfile* profile_;
  std::uint16_t num_hosts_;
  std::uint32_t page_bytes_;
  CoherenceReferee* referee_;
  net::Endpoint endpoint_;
  trace::Tracer* tracer_ = nullptr;

  // Guards everything below; never held across a blocking operation.
  std::mutex state_mu_;
  std::vector<std::uint8_t> mem_;  // representation-faithful memory image
  PageTable ptable_;
  Directory dir_;  // manager placement + this host's manager entries
  // Dynamic-directory machinery (guarded by state_mu_ except the Chan):
  //  - migrate_chan_: jobs for the migration daemon (Chan sends are
  //    non-blocking, so handlers may enqueue).
  //  - reclaiming_: base-managed pages with a reclaim queued or running.
  //  - mgr_grants_total_: lifetime grants in the manager role; plain member
  //    (not a stats key) so knobs-off stat registries stay bit-identical.
  sim::Chan<MigrateJob> migrate_chan_;
  std::set<PageNum> reclaiming_;
  std::uint64_t mgr_grants_total_ = 0;
  // Local fault coalescing: threads faulting a page another thread is
  // already fetching wait here and re-check.
  std::map<PageNum, std::vector<sim::Chan<bool>>> fault_waiters_;
  std::map<PageNum, bool> fault_inflight_;
  // Completed transfers for confirm-probe replay (bounded FIFO).
  struct CompletedOp {
    net::HostId manager = 0;
    bool is_write = false;
  };
  std::map<std::pair<PageNum, std::uint64_t>, CompletedOp> completed_;
  std::deque<std::pair<PageNum, std::uint64_t>> completed_order_;
  // Grants this host is processing right now (reply decoded, confirm not yet
  // sent): a confirm-probe for one of these answers "still working"
  // (kOpGrantExtend) instead of disowning the grant. The value lets a
  // restarted manager adopt the claimed transfer during reconstruction.
  struct InflightOp {
    bool is_write = false;
    std::uint64_t new_version = 0;
  };
  std::map<std::pair<PageNum, std::uint64_t>, InflightOp> inflight_ops_;
  // Grants this host disowned in answer to a confirm-probe. A late reply
  // carrying a fenced op must be discarded — the manager has revoked it, and
  // installing it would put two writers on the page (bounded FIFO).
  std::set<std::pair<PageNum, std::uint64_t>> fenced_;
  std::deque<std::pair<PageNum, std::uint64_t>> fenced_order_;
  std::uint64_t op_counter_ = 0;
  // Crash-recovery state (guarded by state_mu_):
  //  - life_: crash count; fault threads capture it per round and their
  //    installs are fenced when it moved (pre-crash zombies).
  //  - recovering_: set from crash until manager reconstruction finishes;
  //    manager-role requests are dropped (requesters retry) meanwhile.
  //  - op_epoch_: this host's incarnation, folded into the high bits of
  //    issued op ids so a reincarnated manager never reuses a live grant id
  //    (op_counter_ itself restarts from zero — true amnesia).
  std::uint32_t life_ = 0;
  bool recovering_ = false;
  std::uint32_t op_epoch_ = 0;
  // Owner-side conversion cache: converted outgoing page images keyed by
  // (page, version, representation class), LRU-bounded (a hit promotes the
  // key to the back of the eviction order). Version keying makes stale hits
  // impossible; entries are also dropped eagerly on invalidation and local
  // write commit. Guarded by state_mu_.
  struct ConvertCacheKey {
    PageNum page = 0;
    std::uint64_t version = 0;
    std::uint8_t rep = 0;
    auto operator<=>(const ConvertCacheKey&) const = default;
  };
  std::map<ConvertCacheKey, base::Buffer> convert_cache_;
  std::deque<ConvertCacheKey> convert_cache_order_;
  // Probable-owner bookkeeping (guarded by state_mu_):
  //  - hinted_pending_: readers this host served via the hint fast path whose
  //    copyset membership the manager may not know yet. Every write serve /
  //    upgrade appends them to its invalidation targets; an entry is removed
  //    only by the manager's kOpHintCovered notify or by this host's own
  //    write finalize (which invalidates all of them anyway).
  //  - hint_poison_: pages with a hinted fetch in flight; an invalidation
  //    arriving inside the window flips the flag and the (possibly stale)
  //    hinted reply is discarded instead of installed.
  //  - write_pending_: pages of a coalesced write group between the batch
  //    invalidation and their finalize; hint serves refuse them so no new
  //    reader can slip past the already-computed target union.
  std::map<PageNum, std::set<net::HostId>> hinted_pending_;
  std::map<PageNum, bool> hint_poison_;
  std::set<PageNum> write_pending_;
  // Release-consistency state (guarded by state_mu_):
  //  - rc_twins_: pages this host is write-buffering; `base` is the page
  //    image at twin time, diffed against the working copy at release.
  //  - rc_home_dirty_: pages managed here that this host wrote in place
  //    (the home's working copy IS the master; release commits a version
  //    bump with zero wire bytes).
  //  - rc_pending_notices_: write notices produced by flushes, awaiting the
  //    next sync op (capacity-triggered flushes have no sync op to ride).
  //  - rc_applied_: home-side flush idempotence — a release re-issued as a
  //    fresh call after a timeout must not double-apply its diffs. Keyed
  //    (page, origin, flush seq), bounded FIFO.
  struct RcTwin {
    std::vector<std::uint8_t> base;
    std::uint64_t base_version = 0;
  };
  std::map<PageNum, RcTwin> rc_twins_;
  std::set<PageNum> rc_home_dirty_;
  std::vector<sync::WriteNotice> rc_pending_notices_;
  std::uint64_t rc_flush_seq_ = 0;
  struct RcApplied {
    std::uint64_t new_version = 0;
    std::uint64_t prev_version = 0;
  };
  using RcFlushKey = std::tuple<PageNum, net::HostId, std::uint64_t>;
  std::map<RcFlushKey, RcApplied> rc_applied_;
  std::deque<RcFlushKey> rc_applied_order_;
  // Earliest-free times of this host's CPUs (application Compute calls).
  std::vector<SimTime> cpu_busy_until_;

  base::StatsRegistry stats_;
};

}  // namespace mermaid::dsm
