// Unit tests of DSM internals: page-table role assignment, the coherence
// referee's violation detection, and host-level protocol robustness against
// malformed traffic.
#include <functional>
#include <utility>

#include <gtest/gtest.h>

#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/referee.h"
#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace mermaid::dsm {
namespace {

TEST(Directory, FixedDistributedManagerAssignment) {
  SystemConfig cfg;  // directory_mode defaults to kFixed: the paper's p % N
  Directory dir(cfg, /*self=*/1, /*num_hosts=*/3, /*num_pages=*/10);
  for (PageNum p = 0; p < 10; ++p) {
    EXPECT_EQ(dir.BaseManagerOf(p), p % 3);
    EXPECT_EQ(dir.BaseManagedHere(p), p % 3 == 1);
    EXPECT_EQ(dir.ManagedHere(p), p % 3 == 1);
  }
  // Local copies start unknown; the Host constructor seeds the manager's
  // initial read copies, not the bare table.
  PageTable pt(/*num_pages=*/10);
  EXPECT_EQ(pt.Local(1).access, Access::kNone);
  EXPECT_FALSE(pt.Local(1).owned);

  ManagerEntry& m = dir.Manager(4);
  EXPECT_EQ(m.owner, 1);
  EXPECT_EQ(m.copyset.size(), 1u);
  EXPECT_TRUE(m.copyset.count(1));
  EXPECT_FALSE(m.busy);
}

TEST(Directory, ForEachManagedVisitsExactlyOwnPages) {
  SystemConfig cfg;
  Directory dir(cfg, /*self=*/2, /*num_hosts=*/4, /*num_pages=*/11);
  std::vector<PageNum> visited;
  dir.ForEachManaged([&](PageNum p, ManagerEntry&) { visited.push_back(p); });
  EXPECT_EQ(visited, (std::vector<PageNum>{2, 6, 10}));
}

TEST(Referee, AcceptsLegalSequence) {
  CoherenceReferee ref;
  ref.OnInstall(0, 5, 0, Access::kRead);   // initial owner copy
  ref.OnInstall(1, 5, 0, Access::kRead);   // replication
  ref.CheckAccess(1, 5, 0, Access::kRead);
  ref.OnInvalidate(0, 5);
  ref.OnWriteGrant(1, 5, 1);               // sole holder upgrades
  ref.CheckAccess(1, 5, 1, Access::kWrite);
  ref.OnDowngrade(1, 5);
  ref.OnInstall(0, 5, 1, Access::kRead);   // re-replicate at new version
  ref.CheckAccess(0, 5, 1, Access::kRead);
}

using RefereeDeath = CoherenceReferee;

TEST(Referee, DetectsTwoWriters) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnWriteGrant(0, 1, 1);
        ref.OnInstall(1, 1, 1, Access::kRead);
        ref.OnWriteGrant(1, 1, 2);  // host 0 never dropped its write grant
      },
      "write granted while another host holds write access");
}

TEST(Referee, DetectsStaleAccess) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnInstall(1, 1, 0, Access::kRead);
        ref.OnInvalidate(1, 1);
        ref.OnWriteGrant(0, 1, 1);
        ref.CheckAccess(1, 1, 0, Access::kRead);  // dropped copy
      },
      "access on a host without a valid copy");
}

TEST(Referee, DetectsWriteWithoutGrant) {
  ASSERT_DEATH(
      {
        CoherenceReferee ref;
        ref.OnInstall(0, 1, 0, Access::kRead);
        ref.OnInstall(1, 1, 0, Access::kRead);
        ref.CheckAccess(0, 1, 0, Access::kWrite);
      },
      "write access without the write grant");
}

// Robustness: spray malformed and misaddressed packets at a live system's
// hosts; the protocol must drop them (counting them) and keep working.
TEST(Robustness, GarbagePacketsAreDroppedNotFatal) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 128 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile(), &arch::FireflyProfile()});
  sys.Start();

  // A rogue "host" 99 on the same network.
  auto rogue_rx = sys.network().Attach(99, &arch::Sun3Profile());
  (void)rogue_rx;

  sys.SpawnThread(0, "rogue-and-app", [&](Host& h) {
    base::Rng rng(13);
    for (int i = 0; i < 200; ++i) {
      net::Packet pkt;
      pkt.src = 99;
      pkt.dst = static_cast<net::HostId>(rng.NextBelow(2));
      pkt.kind = net::MsgKind::kControl;
      pkt.bytes.resize(rng.NextBelow(64) + 1);
      for (auto& b : pkt.bytes) b = static_cast<std::uint8_t>(rng.NextU64());
      sys.network().Send(std::move(pkt));
    }
    eng.Delay(Seconds(1));
    // The system still works after the garbage storm.
    GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 16);
    h.Write<std::int32_t>(a, 777);
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "reader", [&](Host& h) {
    sys.sync(1).EventWait(1);
    EXPECT_EQ(h.Read<std::int32_t>(0), 777);
  });
  eng.Run();
}

// Region-boundary behavior: a fault group near the end of the region stops
// at the last page instead of running past it.
TEST(Robustness, FaultGroupClampsAtRegionEnd) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 16 * 1024;  // two 8 KB pages
  cfg.page_policy = PageSizePolicy::kSmallest;
  System sys(eng, cfg, {&arch::FireflyProfile(), &arch::Sun3Profile()});
  ASSERT_EQ(sys.page_bytes(), 1024u);
  sys.Start();
  sys.SpawnThread(0, "writer", [&](Host& h) {
    GlobalAddr a = sys.Alloc(0, arch::TypeRegistry::kInt, 4096);  // 16 KB
    h.Write<std::int32_t>(a + 16 * 1024 - 4, 5);
    sys.sync(0).EventSet(1);
  });
  sys.SpawnThread(1, "sun", [&](Host& h) {
    sys.sync(1).EventWait(1);
    // The Sun's 8 KB VM page covers DSM pages 8..15; the last access sits
    // at the very end of the region, and the group must not run past it.
    EXPECT_EQ(h.Read<std::int32_t>(16 * 1024 - 4), 5);
    // Of the eight subpages, the Sun already holds read copies of the ones
    // it manages and still owns (9, 11, 13); 15 was stolen by the writer.
    EXPECT_EQ(sys.host(1).stats().Count("dsm.read_faults"), 5);
  });
  eng.Run();
}

// A typed access whose element straddles two DSM pages fails loudly. The
// block accessors would otherwise spin with no whole element left in the
// page, and the scalar ones would touch the next page's bytes without that
// page's access check.
void RunOnOneSun(std::function<void(Host&)> body) {
  sim::Engine eng;
  SystemConfig cfg;
  cfg.region_bytes = 64 * 1024;
  System sys(eng, cfg, {&arch::Sun3Profile()});
  sys.Start();
  sys.SpawnThread(0, "app", std::move(body));
  eng.Run();
}

TEST(TypedAccessDeathTest, ReadBlockStraddlingPagesDies) {
  ASSERT_DEATH(RunOnOneSun([](Host& h) {
                 double out[2];
                 h.ReadBlock<double>(h.page_bytes() - 4, 2, out);
               }),
               "typed access straddles a DSM page");
}

TEST(TypedAccessDeathTest, WriteBlockStraddlingPagesDies) {
  ASSERT_DEATH(RunOnOneSun([](Host& h) {
                 const std::int32_t in[3] = {1, 2, 3};
                 h.WriteBlock<std::int32_t>(2 * h.page_bytes() - 2, in, 3);
               }),
               "typed access straddles a DSM page");
}

TEST(TypedAccessDeathTest, ReadStraddlingPagesDies) {
  ASSERT_DEATH(RunOnOneSun([](Host& h) {
                 (void)h.Read<std::int64_t>(h.page_bytes() - 1);
               }),
               "typed access straddles a DSM page");
}

TEST(TypedAccessDeathTest, WriteStraddlingPagesDies) {
  ASSERT_DEATH(RunOnOneSun([](Host& h) {
                 h.Write<float>(h.page_bytes() - 2, 1.5f);
               }),
               "typed access straddles a DSM page");
}

// The same accessors at a page's last whole element stay in that page.
TEST(TypedAccess, LastElementOfAPageIsAccessible) {
  RunOnOneSun([](Host& h) {
    const GlobalAddr last = h.page_bytes() - 8;
    h.Write<double>(last, 2.5);
    EXPECT_EQ(h.Read<double>(last), 2.5);
    const double in[3] = {1.0, 2.0, 3.0};
    h.WriteBlock<double>(last - 16, in, 3);
    double out[3] = {};
    h.ReadBlock<double>(last - 16, 3, out);
    EXPECT_EQ(out[2], 3.0);
  });
}

}  // namespace
}  // namespace mermaid::dsm
