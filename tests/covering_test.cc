#include <gtest/gtest.h>

#include "pubsub/workload.h"
#include "routing/routing_tables.h"

namespace tmps {
namespace {

Subscription sub(std::uint32_t seq, std::int64_t lo, std::int64_t hi) {
  return {{10, seq}, Filter::build()
                         .attr("class").eq("STOCK")
                         .attr("x").ge(lo).le(hi)};
}

/// The direct covering queries, parameterized over the backend: true = the
/// covering index, false = the full-table scan oracles. Both must agree on
/// every answer.
class CoveringDecisionTest : public ::testing::TestWithParam<bool> {
 protected:
  bool sub_covered(const SubscriptionId& self, const Filter& f, Hop link) {
    return GetParam() ? rt_.sub_covered_on_link(self, f, link)
                      : rt_.sub_covered_on_link_scan(self, f, link);
  }
  std::vector<SubEntry*> strictly_covered_subs(const SubscriptionId& self,
                                               const Filter& f, Hop link) {
    return GetParam() ? rt_.strictly_covered_subs_on_link(self, f, link)
                      : rt_.strictly_covered_subs_on_link_scan(self, f, link);
  }
  std::vector<SubEntry*> unquenched_subs(const SubEntry& removed, Hop link) {
    return GetParam() ? rt_.unquenched_subs_on_link(removed, link)
                      : rt_.unquenched_subs_on_link_scan(removed, link);
  }
  bool adv_covered(const AdvertisementId& self, const Filter& f, Hop link) {
    return GetParam() ? rt_.adv_covered_on_link(self, f, link)
                      : rt_.adv_covered_on_link_scan(self, f, link);
  }
  std::vector<AdvEntry*> strictly_covered_advs(const AdvertisementId& self,
                                               const Filter& f, Hop link) {
    return GetParam() ? rt_.strictly_covered_advs_on_link(self, f, link)
                      : rt_.strictly_covered_advs_on_link_scan(self, f, link);
  }
  std::vector<AdvEntry*> unquenched_advs(const AdvEntry& removed, Hop link) {
    return GetParam() ? rt_.unquenched_advs_on_link(removed, link)
                      : rt_.unquenched_advs_on_link_scan(removed, link);
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
  auto& wide = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  wide.forwarded_to.insert(link_);
  EXPECT_TRUE(sub_covered({10, 2}, sub(2, 10, 20).filter, link_));
  // Not covered on a different link.
  EXPECT_FALSE(sub_covered({10, 2}, sub(2, 10, 20).filter,
                                       Hop::of_broker(8)));
}

TEST_P(CoveringDecisionTest, NotCoveredByUnforwardedEntry) {
  rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));  // present, not forwarded
  EXPECT_FALSE(sub_covered({10, 2}, sub(2, 10, 20).filter, link_));
}

TEST_P(CoveringDecisionTest, SelfDoesNotCoverItself) {
  auto& e = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  e.forwarded_to.insert(link_);
  EXPECT_FALSE(sub_covered({10, 1}, e.sub.filter, link_));
}

TEST_P(CoveringDecisionTest, StrictlyCoveredExcludesEqualFilters) {
  auto& equal = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  equal.forwarded_to.insert(link_);
  auto& narrow = rt_.upsert_sub(sub(2, 10, 20), Hop::of_client(2));
  narrow.forwarded_to.insert(link_);

  const auto victims =
      strictly_covered_subs({10, 3}, sub(3, 0, 100).filter, link_);
  // Only the strictly narrower subscription is retracted; the equal one is
  // kept (mutual covering never retracts).
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0]->sub.id, (SubscriptionId{10, 2}));
}

TEST_P(CoveringDecisionTest, UnquenchFindsOrphanedSubs) {
  // Advertisement reachable over the link makes it "needed".
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.upsert_sub(sub(2, 10, 20), Hop::of_client(2));  // quenched by root

  root.forwarded_to.clear();  // simulate removal in progress
  const auto orphans = unquenched_subs(*rt_.find_sub({10, 1}),
                                                   link_);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0]->sub.id, (SubscriptionId{10, 2}));
}

TEST_P(CoveringDecisionTest, UnquenchSkipsSubsWithRemainingCoverer) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  auto& mid = rt_.upsert_sub(sub(2, 0, 50), Hop::of_client(2));
  mid.forwarded_to.insert(link_);
  rt_.upsert_sub(sub(3, 10, 20), Hop::of_client(3));  // covered by both

  root.forwarded_to.clear();
  const auto orphans = unquenched_subs(root, link_);
  // sub 3 is still covered by mid; sub 2 is already forwarded.
  EXPECT_TRUE(orphans.empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsSubsNotNeedingLink) {
  // No advertisement over the link: nothing needs re-forwarding there.
  auto& root = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.upsert_sub(sub(2, 10, 20), Hop::of_client(2));
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched_subs(root, link_).empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsEntriesOwnedByLink) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  // This subscription CAME from the link; it must not be forwarded back.
  rt_.upsert_sub(sub(2, 10, 20), link_);
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched_subs(root, link_).empty());
}

TEST_P(CoveringDecisionTest, UnquenchSkipsShadowOnlyEntries) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  auto& root = rt_.upsert_sub(sub(1, 0, 100), Hop::of_client(1));
  root.forwarded_to.insert(link_);
  rt_.install_sub_shadow(sub(2, 10, 20), Hop::of_broker(9), /*txn=*/3);
  root.forwarded_to.clear();
  EXPECT_TRUE(unquenched_subs(root, link_).empty());
}

TEST_P(CoveringDecisionTest, AdvCoveringMirrorsSubCovering) {
  Advertisement wide{{20, 1}, Filter::build()
                                  .attr("class").eq("STOCK")
                                  .attr("x").ge(0).le(100)};
  Advertisement narrow{{20, 2}, Filter::build()
                                    .attr("class").eq("STOCK")
                                    .attr("x").ge(10).le(20)};
  auto& w = rt_.upsert_adv(wide, Hop::of_client(1));
  w.forwarded_to.insert(link_);
  EXPECT_TRUE(adv_covered(narrow.id, narrow.filter, link_));

  auto& n = rt_.upsert_adv(narrow, Hop::of_client(2));
  n.forwarded_to.insert(link_);
  const auto victims =
      strictly_covered_advs({20, 3}, wide.filter, link_);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0]->adv.id, narrow.id);

  // Removal of the wide advertisement un-quenches the narrow one.
  n.forwarded_to.clear();
  w.forwarded_to.clear();
  const auto orphans = unquenched_advs(w, link_);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0]->adv.id, narrow.id);
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
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  const RoutingDelta d = rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  ASSERT_EQ(d.ops.size(), 1u);
  EXPECT_EQ(d.ops[0].kind, RoutingOp::Kind::kForwardSub);
  EXPECT_EQ(d.ops[0].link, link_);
  EXPECT_FALSE(d.ops[0].induced);
  EXPECT_TRUE(rt_.find_sub({10, 1})->forwarded_to.contains(link_));
}

TEST_F(CoveringMutationTest, AddSubQuenchedByCoverer) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  ASSERT_FALSE(rt_.add_sub(sub(1, 0, 100), Hop::of_client(1)).empty());
  const RoutingDelta d = rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));
  EXPECT_TRUE(d.ops.empty());
  ASSERT_EQ(d.quenched.size(), 1u);
  EXPECT_EQ(d.quenched[0], link_);
}

TEST_F(CoveringMutationTest, AddSubRetractsStrictlyCovered) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
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
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
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
  EXPECT_EQ(rt_.find_sub({10, 1}), nullptr);
}

TEST_F(CoveringMutationTest, RemoveSubFromWrongHopIsDropped) {
  rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  const RoutingDelta d = rt_.remove_sub({10, 1}, Hop::of_client(99));
  EXPECT_FALSE(d.applied);
  EXPECT_NE(rt_.find_sub({10, 1}), nullptr);
}

TEST_F(CoveringMutationTest, CoverIndexStaysConsistent) {
  rt_.upsert_adv({{20, 1}, full_space_advertisement()}, link_);
  rt_.add_sub(sub(1, 0, 100), Hop::of_client(1));
  rt_.add_sub(sub(2, 10, 20), Hop::of_client(2));
  rt_.remove_sub({10, 1}, Hop::of_client(1));
  rt_.install_sub_shadow(sub(3, 5, 6), Hop::of_broker(9), /*txn=*/3);
  rt_.abort_shadow({10, 3}, /*txn=*/3);
  EXPECT_TRUE(rt_.check_cover_index().empty());
}

}  // namespace
}  // namespace tmps
