#include <gtest/gtest.h>

#include "pubsub/workload.h"
#include "routing/routing_tables.h"
#include "routing_reference.h"

namespace tmps {
namespace {

Subscription sub(std::uint32_t seq, std::int64_t lo, std::int64_t hi) {
  return {{10, seq}, Filter::build()
                         .attr("class").eq("STOCK")
                         .attr("x").ge(lo).le(hi)};
}

/// The direct covering queries, parameterized over the backend: true = the
/// covering index, false = the full-table scan oracles of the reference
/// library. Both must agree on every answer.
class CoveringDecisionTest : public ::testing::TestWithParam<bool> {
 protected:
  template <class Item>
  using Rows = std::vector<const RouteEntry<Item>*>;

  template <class Item>
  bool covered(const RouteTable<Item>& t, const EntityId& self,
               const Filter& f, Hop link) {
    return GetParam() ? t.covered_on_link(self, f, link)
                      : covered_on_link_scan(t, self, f, link);
  }
  template <class Item>
  Rows<Item> strictly_covered(RouteTable<Item>& t, const EntityId& self,
                              const Filter& f, Hop link) {
    if (!GetParam()) return strictly_covered_on_link_scan(t, self, f, link);
    const auto rows = t.strictly_covered_on_link(self, f, link);
    return {rows.begin(), rows.end()};
  }
  /// PRT rows also need an advertisement behind the link to un-quench.
  template <class Item>
  Rows<Item> unquenched(RouteTable<Item>& t, const RouteEntry<Item>& removed,
                        Hop link) {
    typename RouteTable<Item>::LinkNeed need;
    if constexpr (RouteTable<Item>::kIsPrt) {
      need = GetParam() ? rt_.link_need() : link_need_scan(rt_);
    }
    if (!GetParam()) return unquench_candidates_scan(t, removed, link, need);
    const auto rows = t.unquench_candidates(removed, link, need);
    return {rows.begin(), rows.end()};
  }

  RoutingTables rt_;
  const Hop link_ = Hop::of_broker(7);
};

INSTANTIATE_TEST_SUITE_P(IndexAndScan, CoveringDecisionTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "index" : "scan";
                         });

TEST_P(CoveringDecisionTest, CoveredByForwardedEntry) {
  auto& wide = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  wide.forwarded_to.insert(link_);
  EXPECT_TRUE(covered(rt_.prt(), {10, 2}, sub(2, 10, 20).filter, link_));
  // Not covered on a different link.
  EXPECT_FALSE(covered(rt_.prt(), {10, 2}, sub(2, 10, 20).filter,
                       Hop::of_broker(8)));
}

TEST_P(CoveringDecisionTest, NotCoveredByUnforwardedEntry) {
  // Present, not forwarded.
  rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  EXPECT_FALSE(covered(rt_.prt(), {10, 2}, sub(2, 10, 20).filter, link_));
}

TEST_P(CoveringDecisionTest, SelfDoesNotCoverItself) {
  auto& e = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  e.forwarded_to.insert(link_);
  EXPECT_FALSE(covered(rt_.prt(), {10, 1}, e.item.filter, link_));
}

TEST_P(CoveringDecisionTest, StrictlyCoveredExcludesEqualFilters) {
  auto& equal = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  equal.forwarded_to.insert(link_);
  auto& narrow = rt_.prt().upsert(sub(2, 10, 20), Hop::of_client(2));
  narrow.forwarded_to.insert(link_);

  const auto victims =
      strictly_covered(rt_.prt(), {10, 3}, sub(3, 0, 100).filter, link_);
  // Only the strictly narrower subscription is retracted; the equal one is
  // kept (mutual covering never retracts).
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0]->item.id, (SubscriptionId{10, 2}));
}

TEST_P(CoveringDecisionTest, UnquenchFindsOrphanedSubs) {
  // Advertisement reachable over the link makes it "needed".
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.prt().upsert(sub(2, 10, 20), Hop::of_client(2));  // quenched by root

  root.forwarded_to.clear();  // simulate removal in progress
  const auto orphans = unquenched(rt_.prt(), *rt_.prt().find({10, 1}), link_);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0]->item.id, (SubscriptionId{10, 2}));
}

TEST_P(CoveringDecisionTest, UnquenchSkipsSubsWithRemainingCoverer) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  auto& mid = rt_.prt().upsert(sub(2, 0, 50), Hop::of_client(2));
  mid.forwarded_to.insert(link_);
  rt_.prt().upsert(sub(3, 10, 20), Hop::of_client(3));  // covered by both

  root.forwarded_to.clear();
  const auto orphans = unquenched(rt_.prt(), root, link_);
  // sub 3 is still covered by mid; sub 2 is already forwarded.
  EXPECT_TRUE(orphans.empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsSubsNotNeedingLink) {
  // No advertisement over the link: nothing needs re-forwarding there.
  auto& root = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.prt().upsert(sub(2, 10, 20), Hop::of_client(2));
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched(rt_.prt(), root, link_).empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsEntriesOwnedByLink) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  // This subscription CAME from the link; it must not be forwarded back.
  rt_.prt().upsert(sub(2, 10, 20), link_);
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched(rt_.prt(), root, link_).empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsShadowOnlyEntries) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.prt().install_shadow(sub(2, 10, 20), Hop::of_broker(9), /*txn=*/3);
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched(rt_.prt(), root, link_).empty());
}

TEST_P(CoveringDecisionTest, AdvCoveringMirrorsSubCovering) {
  Advertisement wide{{20, 1}, Filter::build()
                                  .attr("class").eq("STOCK")
                                  .attr("x").ge(0).le(100)};
  Advertisement narrow{{20, 2}, Filter::build()
                                    .attr("class").eq("STOCK")
                                    .attr("x").ge(10).le(20)};
  auto& w = rt_.srt().upsert(wide, Hop::of_client(1));
  w.forwarded_to.insert(link_);
  EXPECT_TRUE(covered(rt_.srt(), narrow.id, narrow.filter, link_));

  auto& n = rt_.srt().upsert(narrow, Hop::of_client(2));
  n.forwarded_to.insert(link_);
  const auto victims =
      strictly_covered(rt_.srt(), {20, 3}, wide.filter, link_);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0]->item.id, narrow.id);

  // Removal of the wide advertisement un-quenches the narrow one.
  n.forwarded_to.clear();
  w.forwarded_to.clear();
  const auto orphans = unquenched(rt_.srt(), w, link_);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0]->item.id, narrow.id);
}

// The delta-returning mutation API: forwarding, quenching, covering
// retraction and un-quench ordering, end to end on one table. It always
// runs on the index.
class CoveringMutationTest : public ::testing::Test {
 protected:
  RoutingTables rt_;
  const Hop link_ = Hop::of_broker(7);
};

TEST_F(CoveringMutationTest, AddSubForwardsTowardsAdvertisement) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  const RoutingDelta d = rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  ASSERT_EQ(d.ops.size(), 1u);
  EXPECT_EQ(d.ops[0].kind, RoutingOp::Kind::kForwardSub);
  EXPECT_EQ(d.ops[0].link, link_);
  EXPECT_FALSE(d.ops[0].induced);
  EXPECT_TRUE(rt_.prt().find({10, 1})->forwarded_to.contains(link_));
}

TEST_F(CoveringMutationTest, AddSubQuenchedByCoverer) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  ASSERT_FALSE(rt_.add_sub(sub(1, 0, 100), Hop::of_client(1)).empty());
  const RoutingDelta d = rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));
  EXPECT_TRUE(d.ops.empty());
  ASSERT_EQ(d.quenched.size(), 1u);
  EXPECT_EQ(d.quenched[0], link_);
}

TEST_F(CoveringMutationTest, AddSubRetractsStrictlyCovered) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));
  const RoutingDelta d = rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  ASSERT_EQ(d.ops.size(), 2u);
  EXPECT_EQ(d.ops[0].kind, RoutingOp::Kind::kForwardSub);
  EXPECT_EQ(d.ops[0].id, (SubscriptionId{10, 1}));
  EXPECT_EQ(d.ops[1].kind, RoutingOp::Kind::kRetractSub);
  EXPECT_EQ(d.ops[1].id, (SubscriptionId{10, 2}));
  EXPECT_TRUE(d.ops[1].induced);
}

TEST_F(CoveringMutationTest, RemoveSubEmitsUnquenchBeforeRetraction) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));  // quenched
  const RoutingDelta d = rt_.remove_sub({10, 1}, Hop::of_client(1));
  ASSERT_TRUE(d.applied);
  ASSERT_EQ(d.ops.size(), 2u);
  // The orphaned subscription is forwarded BEFORE the root's retraction.
  EXPECT_EQ(d.ops[0].kind, RoutingOp::Kind::kForwardSub);
  EXPECT_EQ(d.ops[0].id, (SubscriptionId{10, 2}));
  EXPECT_TRUE(d.ops[0].induced);
  EXPECT_EQ(d.ops[1].kind, RoutingOp::Kind::kRetractSub);
  EXPECT_EQ(d.ops[1].id, (SubscriptionId{10, 1}));
  EXPECT_EQ(rt_.prt().find({10, 1}), nullptr);
}

TEST_F(CoveringMutationTest, RemoveSubFromWrongHopIsDropped) {
  rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  const RoutingDelta d = rt_.remove_sub({10, 1}, Hop::of_client(99));
  EXPECT_FALSE(d.applied);
  EXPECT_NE(rt_.prt().find({10, 1}), nullptr);
}

TEST_F(CoveringMutationTest, CoverIndexStaysConsistent) {
  rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
  rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));
  rt_.remove_sub({10, 1}, Hop::of_client(1));
  rt_.prt().install_shadow(sub(3, 5, 6), Hop::of_broker(9), /*txn=*/3);
  rt_.prt().abort_shadow({10, 3}, /*txn=*/3);
  EXPECT_TRUE(rt_.check_cover_index().empty());
}

}  // namespace
}  // namespace tmps
