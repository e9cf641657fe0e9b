#include "mermaid/dsm/directory.h"

#include <algorithm>

#include "mermaid/base/check.h"

namespace mermaid::dsm {
namespace {

// splitmix64 finalizer: cheap, well-distributed, and a pure function — the
// ring follows from (num_hosts, shards_per_host) alone.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Decorrelate page keys from virtual-node keys.
std::uint64_t PageKey(PageNum p) {
  return Mix64(0xd1b54a32d192ed03ull ^ static_cast<std::uint64_t>(p));
}

}  // namespace

std::shared_ptr<const Directory::Placement> Directory::BuildPlacement(
    const SystemConfig& cfg, std::uint16_t num_hosts, PageNum num_pages) {
  MERMAID_CHECK(num_hosts > 0);
  auto placement = std::make_shared<Placement>(num_pages);
  Placement& out = *placement;
  if (cfg.directory_mode == SystemConfig::DirectoryMode::kFixed) {
    for (PageNum p = 0; p < num_pages; ++p) {
      out[p] = static_cast<net::HostId>(p % num_hosts);
    }
    return placement;
  }
  // Consistent-hash ring: (hash, host), sorted by hash; a page belongs to
  // the first virtual node at or after its key, wrapping around.
  const std::uint32_t shards =
      std::max<std::uint32_t>(1, cfg.directory_shards_per_host);
  std::vector<std::pair<std::uint64_t, std::uint16_t>> ring;
  ring.reserve(static_cast<std::size_t>(num_hosts) * shards);
  for (std::uint16_t h = 0; h < num_hosts; ++h) {
    for (std::uint32_t v = 0; v < shards; ++v) {
      ring.emplace_back(Mix64((static_cast<std::uint64_t>(h) << 32) | v), h);
    }
  }
  std::sort(ring.begin(), ring.end());
  for (PageNum p = 0; p < num_pages; ++p) {
    auto it = std::upper_bound(
        ring.begin(), ring.end(), PageKey(p),
        [](std::uint64_t k, const std::pair<std::uint64_t, std::uint16_t>& n) {
          return k < n.first;
        });
    if (it == ring.end()) it = ring.begin();  // wrap
    out[p] = static_cast<net::HostId>(it->second);
  }
  return placement;
}

Directory::Directory(const SystemConfig& cfg, net::HostId self,
                     std::shared_ptr<const Placement> placement)
    : mode_(cfg.directory_mode),
      self_(self),
      placement_(std::move(placement)) {
  // Initially the base manager owns every page it manages, holding the
  // zero-filled read copy (the matching LocalPageEntry seeding lives in the
  // Host constructor).
  const PageNum n = num_pages();
  for (PageNum p = 0; p < n; ++p) {
    if (BaseManagerOf(p) == self_) {
      ManagerEntry& m = entries_[p];
      m.owner = self_;
      m.copyset.insert(self_);
    }
  }
}

Directory::Directory(const SystemConfig& cfg, net::HostId self,
                     std::uint16_t num_hosts, PageNum num_pages)
    : Directory(cfg, self, BuildPlacement(cfg, num_hosts, num_pages)) {}

ManagerEntry& Directory::Manager(PageNum p) {
  auto it = entries_.find(p);
  MERMAID_CHECK(it != entries_.end());
  return it->second;
}

ManagerEntry* Directory::FindManager(PageNum p) {
  auto it = entries_.find(p);
  return it == entries_.end() ? nullptr : &it->second;
}

ManagerEntry& Directory::AdoptManager(PageNum p) {
  MERMAID_CHECK(entries_.count(p) == 0);
  return entries_[p];
}

void Directory::EraseManager(PageNum p) { entries_.erase(p); }

std::vector<PageNum> Directory::ManagedPages() const {
  std::vector<PageNum> out;
  out.reserve(entries_.size());
  for (const auto& [p, m] : entries_) out.push_back(p);
  return out;
}

net::HostId Directory::ManagerTarget(PageNum p) const {
  auto it = learned_.find(p);
  if (it != learned_.end()) return it->second.first;
  return BaseManagerOf(p);
}

void Directory::LearnManager(PageNum p, net::HostId mgr, std::uint32_t inc) {
  if (mgr == self_ || BaseManagerOf(p) == mgr) {
    learned_.erase(p);  // the base placement needs no note
    return;
  }
  learned_[p] = {mgr, inc};
}

void Directory::ForgetManager(PageNum p) { learned_.erase(p); }

std::size_t Directory::ForgetManagersAt(net::HostId h) {
  std::size_t cleared = 0;
  for (auto it = learned_.begin(); it != learned_.end();) {
    if (it->second.first == h) {
      it = learned_.erase(it);
      ++cleared;
    } else {
      ++it;
    }
  }
  return cleared;
}

const Directory::Forward* Directory::ForwardOf(PageNum p) const {
  auto it = forwards_.find(p);
  return it == forwards_.end() ? nullptr : &it->second;
}

void Directory::SetForward(PageNum p, net::HostId to, std::uint32_t inc) {
  forwards_[p] = Forward{to, inc};
}

void Directory::ClearForward(PageNum p) { forwards_.erase(p); }

void Directory::WipeForCrash() {
  entries_.clear();
  const PageNum n = num_pages();
  for (PageNum p = 0; p < n; ++p) {
    if (BaseManagerOf(p) == self_) entries_[p];  // default (unknown) entry
  }
  forwards_.clear();
  learned_.clear();
}

}  // namespace mermaid::dsm
