#include "routing/routing_tables.h"

#include <gtest/gtest.h>

#include "pubsub/workload.h"

namespace tmps {
namespace {

Subscription sub(std::uint32_t seq, std::int64_t lo, std::int64_t hi) {
  return {{10, seq},
          Filter::build().attr("class").eq("STOCK").attr("x").ge(lo).le(hi)};
}
Advertisement adv(std::uint32_t seq) {
  return {{20, seq}, full_space_advertisement()};
}

TEST(RoutingTables, UpsertAndFind) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 100), Hop::of_broker(2));
  EXPECT_EQ(rt.prt().size(), 1u);
  auto* e = rt.prt().find({10, 1});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->lasthop, Hop::of_broker(2));
  // Upsert with a new hop updates in place.
  rt.prt().upsert(sub(1, 0, 100), Hop::of_broker(3));
  EXPECT_EQ(rt.prt().size(), 1u);
  EXPECT_EQ(rt.prt().find({10, 1})->lasthop, Hop::of_broker(3));
  rt.prt().erase({10, 1});
  EXPECT_EQ(rt.prt().find({10, 1}), nullptr);
}

TEST(RoutingTables, MatchDedupsLinks) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 100), Hop::of_broker(2));
  rt.prt().upsert(sub(2, 0, 50), Hop::of_broker(2));
  rt.prt().upsert(sub(3, 0, 50), Hop::of_broker(4));
  const auto mr = rt.match(Publication{{1, 1}, {{"class", "STOCK"},
                                                {"x", 25}}});
  EXPECT_EQ(mr.links.size(), 2u);
  EXPECT_EQ(mr.matched, 3u);  // every matching entry counted, links deduped
  EXPECT_EQ(mr.version, rt.version());
}

TEST(RoutingTables, MatchSkipsNonMatching) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 10), Hop::of_broker(2));
  const auto mr = rt.match(Publication{{1, 1}, {{"class", "STOCK"},
                                                {"x", 25}}});
  EXPECT_TRUE(mr.links.empty());
  EXPECT_EQ(mr.matched, 0u);
}

TEST(RoutingTables, ShadowInstallCommit) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 100), Hop::of_client(10));
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), /*txn=*/77);

  // Both hops are live while the transaction is in flight.
  const auto hops = rt.match(Publication{{1, 1}, {{"class", "STOCK"},
                                                  {"x", 25}}}).links;
  EXPECT_EQ(hops.size(), 2u);
  EXPECT_TRUE(rt.has_pending_shadows());

  rt.prt().commit_shadow({10, 1}, 77);
  auto* e = rt.prt().find({10, 1});
  EXPECT_EQ(e->lasthop, Hop::of_broker(5));
  EXPECT_FALSE(e->shadow_lasthop.has_value());
  EXPECT_FALSE(rt.has_pending_shadows());
}

TEST(RoutingTables, ShadowAbortRestoresOriginal) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 100), Hop::of_client(10));
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), 77);
  rt.prt().abort_shadow({10, 1}, 77);
  auto* e = rt.prt().find({10, 1});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->lasthop, Hop::of_client(10));
  EXPECT_FALSE(rt.has_pending_shadows());
}

TEST(RoutingTables, ShadowOnlyEntryVanishesOnAbort) {
  RoutingTables rt;
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), 77);
  EXPECT_EQ(rt.prt().size(), 1u);
  EXPECT_TRUE(rt.prt().find({10, 1})->shadow_only);
  rt.prt().abort_shadow({10, 1}, 77);
  EXPECT_EQ(rt.prt().size(), 0u);
}

TEST(RoutingTables, ShadowOnlyEntryBecomesRealOnCommit) {
  RoutingTables rt;
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), 77);
  rt.prt().commit_shadow({10, 1}, 77);
  auto* e = rt.prt().find({10, 1});
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->shadow_only);
  EXPECT_EQ(e->lasthop, Hop::of_broker(5));
}

TEST(RoutingTables, CommitWithWrongTxnIsNoop) {
  RoutingTables rt;
  rt.prt().upsert(sub(1, 0, 100), Hop::of_client(10));
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), 77);
  rt.prt().commit_shadow({10, 1}, 78);  // different transaction
  EXPECT_TRUE(rt.has_pending_shadows());
  rt.prt().abort_shadow({10, 1}, 78);  // also a no-op
  EXPECT_TRUE(rt.has_pending_shadows());
}

TEST(RoutingTables, ShadowOnlyEntryDoesNotRouteViaPrimary) {
  RoutingTables rt;
  rt.prt().install_shadow(sub(1, 0, 100), Hop::of_broker(5), 77);
  const auto mr = rt.match(Publication{{1, 1}, {{"class", "STOCK"},
                                                {"x", 25}}});
  ASSERT_EQ(mr.links.size(), 1u);
  EXPECT_EQ(mr.links[0], Hop::of_broker(5));
  EXPECT_EQ(mr.matched, 1u);  // shadow-only entries still count as matched
}

TEST(RoutingTables, AdvShadowLifecycle) {
  RoutingTables rt;
  rt.srt().upsert(adv(1), Hop::of_client(20));
  rt.srt().install_shadow(adv(1), Hop::of_broker(3), 5);
  EXPECT_TRUE(rt.has_pending_shadows());
  rt.srt().commit_shadow({20, 1}, 5);
  EXPECT_EQ(rt.srt().find({20, 1})->lasthop, Hop::of_broker(3));
  rt.srt().install_shadow(adv(1), Hop::of_broker(4), 6);
  rt.srt().abort_shadow({20, 1}, 6);
  EXPECT_EQ(rt.srt().find({20, 1})->lasthop, Hop::of_broker(3));
}

TEST(RoutingTables, IntersectionQueries) {
  RoutingTables rt;
  rt.srt().upsert(adv(1), Hop::of_broker(2));
  rt.prt().upsert(sub(1, 0, 100), Hop::of_broker(3));
  EXPECT_EQ(rt.srt().intersecting(sub(1, 0, 100).filter).size(), 1u);
  EXPECT_EQ(rt.prt().intersecting(adv(1).filter).size(), 1u);
  Filter narrow = Filter::build().attr("class").eq("BOND");
  EXPECT_TRUE(rt.srt().intersecting(narrow).empty());
}

}  // namespace
}  // namespace tmps
