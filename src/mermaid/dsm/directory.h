// Manager-placement directory: who manages which DSM page, and this host's
// slice of manager-side state.
//
// The paper fixes page p's manager at host (p % N). That mapping is a
// per-page serialization point and a crash blast radius, so the directory
// now sits behind this class with three placements (SystemConfig::
// directory_mode):
//
//   kFixed    — the paper's p % N. Default; Tables 2–4 depend on it.
//   kSharded  — consistent-hash ring of N x directory_shards_per_host
//               virtual shards. Pure function of (num_hosts, shards), so
//               every host computes the same map with no coordination.
//   kDynamic  — sharded *base* map, but management may migrate toward the
//               last/dominant writer (Li's dynamic distributed managers).
//               The base manager is then only the page's well-known rally
//               point: old managers keep a forward pointer, requesters keep
//               a learned location, and recovery rebuilds from the base.
//
// The base placement of every page is an immutable page -> host table
// (Placement). A System builds it once and every host's Directory shares
// it, so a lookup is an array index. All mutable state here is guarded by
// the owning Host's state_mu_, exactly like the PageTable it was split from.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mermaid/base/check.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"

namespace mermaid::dsm {

class Directory {
 public:
  // Base manager of each page, indexed by page number. A pure function of
  // (directory_mode, directory_shards_per_host, num_hosts, num_pages).
  using Placement = std::vector<net::HostId>;
  static std::shared_ptr<const Placement> BuildPlacement(
      const SystemConfig& cfg, std::uint16_t num_hosts, PageNum num_pages);

  // Shares `placement` (from BuildPlacement with the same cfg).
  Directory(const SystemConfig& cfg, net::HostId self,
            std::shared_ptr<const Placement> placement);
  // Builds a private placement; for use outside a System.
  Directory(const SystemConfig& cfg, net::HostId self, std::uint16_t num_hosts,
            PageNum num_pages);

  // --- static base placement (immutable; safe without locks) -------------
  net::HostId BaseManagerOf(PageNum p) const {
    MERMAID_CHECK(p < placement_->size());
    return (*placement_)[p];
  }
  bool BaseManagedHere(PageNum p) const { return BaseManagerOf(p) == self_; }

  // --- this host's manager entries ----------------------------------------
  // Under kFixed/kSharded an entry exists iff BaseManagedHere(p); under
  // kDynamic entries follow migration.
  bool ManagedHere(PageNum p) const { return entries_.count(p) != 0; }
  ManagerEntry& Manager(PageNum p);       // CHECKs ManagedHere(p)
  ManagerEntry* FindManager(PageNum p);   // nullptr when not managed here
  ManagerEntry& AdoptManager(PageNum p);  // create (migration target)
  void EraseManager(PageNum p);           // drop (migration source)

  // Ascending page order, matching the janitor's historical scan order.
  template <typename Fn>
  void ForEachManaged(Fn&& fn) {
    for (auto& [p, m] : entries_) fn(p, m);
  }
  std::vector<PageNum> ManagedPages() const;

  // --- requester-side routing ---------------------------------------------
  // Where to send a manager request for p: a learned (migrated) location if
  // one is known, else the base manager. Never returns a forward target —
  // forwards are served on the receive path.
  net::HostId ManagerTarget(PageNum p) const;
  void LearnManager(PageNum p, net::HostId mgr, std::uint32_t inc);
  void ForgetManager(PageNum p);
  // Drops every learned location naming h (reincarnation sweep); returns how
  // many were cleared.
  std::size_t ForgetManagersAt(net::HostId h);

  // --- forward pointers (kDynamic; source side of a finished migration) ---
  struct Forward {
    net::HostId to = 0;
    std::uint32_t inc = 0;  // to's incarnation when the migration completed
  };
  const Forward* ForwardOf(PageNum p) const;
  void SetForward(PageNum p, net::HostId to, std::uint32_t inc);
  void ClearForward(PageNum p);
  template <typename Fn>
  void ForEachForward(Fn&& fn) const {
    for (const auto& [p, f] : forwards_) fn(p, f);
  }

  // Crash-with-amnesia: entries return to *default* (unknown) state at the
  // base placement — recovery rebuilds them from survivor claims — and every
  // forward pointer and learned location is forgotten.
  void WipeForCrash();

  PageNum num_pages() const {
    return static_cast<PageNum>(placement_->size());
  }
  bool dynamic() const {
    return mode_ == SystemConfig::DirectoryMode::kDynamic;
  }

 private:
  SystemConfig::DirectoryMode mode_;
  net::HostId self_;
  std::shared_ptr<const Placement> placement_;
  std::map<PageNum, ManagerEntry> entries_;
  std::map<PageNum, Forward> forwards_;
  std::map<PageNum, std::pair<net::HostId, std::uint32_t>> learned_;
};

}  // namespace mermaid::dsm
