// Randomized equivalence test of the counting forwarding index against the
// full-PRT scan oracle: every workload shape of Fig. 7 (plus adversarial
// equality-free and unsatisfiable filters), random table mutations through
// the RoutingMutation API — single applies and coalesced apply_batch bursts —
// raw forwarded_to flips and movement-shadow install/commit/abort. After
// every mutation the index must pass its structural consistency check
// (check_forward_index), and match() must return exactly what match_scan()
// returns — links, matched count and version — for a battery of random and
// boundary publications.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/scenario.h"
#include "pubsub/workload.h"
#include "routing/routing_tables.h"
#include "routing_reference.h"

namespace tmps {
namespace {

/// match() answers must equal the scan oracle exactly for every probed
/// publication: same deduped link set, same matched count, same version.
void expect_match_equals_scan(RoutingTables& rt, std::mt19937_64& rng,
                              int probes = 24) {
  std::uint32_t seq = 0;
  for (int i = 0; i < probes; ++i) {
    const std::int64_t x = static_cast<std::int64_t>(rng() % 12000) - 1000;
    const std::int64_t g = static_cast<std::int64_t>(rng() % 3);
    const Publication p = make_publication({900, ++seq}, x, g);
    const MatchResult got = rt.match(p);
    const MatchResult want = match_scan(rt, p);
    ASSERT_EQ(got.links, want.links) << "x=" << x << " g=" << g;
    ASSERT_EQ(got.matched, want.matched) << "x=" << x << " g=" << g;
    ASSERT_EQ(got.version, want.version);
    ASSERT_EQ(got.version, rt.version());
  }
}

class ForwardIndexProperty : public ::testing::TestWithParam<WorkloadKind> {};

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ForwardIndexProperty,
                         ::testing::Values(WorkloadKind::Covered,
                                           WorkloadKind::Chained,
                                           WorkloadKind::Tree,
                                           WorkloadKind::Distinct,
                                           WorkloadKind::Random),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST_P(ForwardIndexProperty, RandomMutationsAgreeWithScanOracle) {
  const WorkloadKind kind = GetParam();
  std::mt19937_64 rng(0xF0D0u + static_cast<std::uint64_t>(kind));
  RoutingTables rt;

  struct Live {
    EntityId id;
    Filter filter;
  };
  struct Pending {
    EntityId id;
    Filter filter;
    TxnId txn;
    bool fresh;  // entry exists only as shadow state
    bool adv;
  };
  std::vector<Live> subs, advs;
  std::vector<Pending> pending;
  std::uint32_t seq = 0;
  TxnId next_txn = 100;

  const auto rand_link = [&](bool brokers_only = false) {
    const auto r = rng() % (brokers_only ? 3 : 5);
    return r < 3 ? Hop::of_broker(static_cast<BrokerId>(1 + r))
                 : Hop::of_client(static_cast<ClientId>(r - 2));
  };
  const auto rand_filter = [&]() -> Filter {
    const auto roll = rng() % 16;
    if (roll == 0) {  // unsatisfiable: filed nowhere, never a candidate
      return Filter::build().attr("x").eq(1).eq(2);
    }
    if (roll <= 2) {  // no equality predicate: counting-only filing
      const std::int64_t lo = static_cast<std::int64_t>(rng() % 5000);
      const std::int64_t hi = lo + 1 + static_cast<std::int64_t>(rng() % 3000);
      return Filter::build().attr("x").ge(lo).le(hi);
    }
    const int i = 1 + static_cast<int>(rng() % 10);
    const std::int64_t group = static_cast<std::int64_t>(rng() % 3);
    return workload_filter_at(kind, i, group, rng());
  };

  for (int step = 0; step < 250; ++step) {
    switch (rng() % 13) {
      case 0:
      case 1:
      case 2: {  // add a subscription through the mutation API
        const Subscription s{{1000 + rng() % 20, ++seq}, rand_filter()};
        rt.apply(RoutingMutation::add_sub(s, rand_link()));
        subs.push_back({s.id, s.filter});
        break;
      }
      case 3:
      case 4: {  // remove one (occasionally from the wrong hop)
        if (subs.empty()) break;
        const std::size_t k = rng() % subs.size();
        const SubEntry* e = rt.prt().find(subs[k].id);
        ASSERT_NE(e, nullptr);
        const bool wrong_hop = rng() % 8 == 0;
        const RoutingDelta d = rt.apply(RoutingMutation::remove_sub(
            subs[k].id, wrong_hop ? Hop::of_broker(77) : e->lasthop));
        if (d.applied) subs.erase(subs.begin() + static_cast<long>(k));
        break;
      }
      case 5: {  // add an advertisement (flooded over the broker links)
        const Advertisement a{{2000 + rng() % 10, ++seq}, rand_filter()};
        rt.apply(RoutingMutation::add_adv(
            a, rand_link(),
            {Hop::of_broker(1), Hop::of_broker(2), Hop::of_broker(3)}));
        advs.push_back({a.id, a.filter});
        break;
      }
      case 6: {
        if (advs.empty()) break;
        const std::size_t k = rng() % advs.size();
        const AdvEntry* e = rt.srt().find(advs[k].id);
        ASSERT_NE(e, nullptr);
        const RoutingDelta d =
            rt.apply(RoutingMutation::remove_adv(advs[k].id, e->lasthop));
        if (d.applied) advs.erase(advs.begin() + static_cast<long>(k));
        break;
      }
      case 7: {  // raw forwarded_to flip: membership-only filing must not care
        if (subs.empty()) break;
        SubEntry* e = rt.prt().find(subs[rng() % subs.size()].id);
        ASSERT_NE(e, nullptr);
        const Hop link = rand_link(/*brokers_only=*/true);
        if (e->forwarded_to.erase(link) == 0) e->forwarded_to.insert(link);
        break;
      }
      case 8: {  // install a movement shadow (fresh or on an existing entry)
        const TxnId txn = ++next_txn;
        if (!subs.empty() && rng() % 2 == 0) {
          const Live& l = subs[rng() % subs.size()];
          // one at a time
          if (rt.prt().find(l.id)->shadow_txn != kNoTxn) break;
          rt.prt().install_shadow({l.id, l.filter}, rand_link(), txn);
          pending.push_back({l.id, l.filter, txn, false, false});
        } else {
          const Subscription s{{3000 + rng() % 10, ++seq}, rand_filter()};
          rt.prt().install_shadow(s, rand_link(), txn);
          pending.push_back({s.id, s.filter, txn, true, false});
        }
        break;
      }
      case 9: {  // adv shadow
        const TxnId txn = ++next_txn;
        const Advertisement a{{4000 + rng() % 10, ++seq}, rand_filter()};
        rt.srt().install_shadow(a, rand_link(), txn);
        pending.push_back({a.id, a.filter, txn, true, true});
        break;
      }
      case 10: {  // resolve a pending shadow: commit or abort
        if (pending.empty()) break;
        const std::size_t k = rng() % pending.size();
        const Pending p = pending[k];
        pending.erase(pending.begin() + static_cast<long>(k));
        const bool commit = rng() % 2 == 0;
        if (p.adv) {
          commit ? rt.srt().commit_shadow(p.id, p.txn)
                 : rt.srt().abort_shadow(p.id, p.txn);
          if (commit && p.fresh) advs.push_back({p.id, p.filter});
        } else {
          commit ? rt.prt().commit_shadow(p.id, p.txn)
                 : rt.prt().abort_shadow(p.id, p.txn);
          if (commit && p.fresh) subs.push_back({p.id, p.filter});
        }
        break;
      }
      case 11:
      case 12: {  // mobility-style burst through apply_batch: retract a few
                  // live subs and re-issue fresh ones as one coalesced batch
        std::vector<RoutingMutation> muts;
        const std::size_t retracts =
            subs.empty() ? 0 : 1 + rng() % std::min<std::size_t>(3,
                                                                 subs.size());
        for (std::size_t i = 0; i < retracts; ++i) {
          const std::size_t k = rng() % subs.size();
          muts.push_back(RoutingMutation::remove_sub(
              subs[k].id, rt.prt().find(subs[k].id)->lasthop));
          subs.erase(subs.begin() + static_cast<long>(k));
        }
        const std::size_t adds = 1 + rng() % 4;
        for (std::size_t i = 0; i < adds; ++i) {
          const Subscription s{{5000 + rng() % 20, ++seq}, rand_filter()};
          muts.push_back(RoutingMutation::add_sub(s, rand_link()));
          subs.push_back({s.id, s.filter});
        }
        if (rng() % 4 == 0) {
          const Advertisement a{{6000 + rng() % 10, ++seq}, rand_filter()};
          muts.push_back(RoutingMutation::add_adv(
              a, rand_link(), {Hop::of_broker(1), Hop::of_broker(2)}));
          advs.push_back({a.id, a.filter});
        }
        const auto deltas = rt.apply_batch(muts);
        ASSERT_EQ(deltas.size(), muts.size());
        break;
      }
    }

    const std::vector<std::string> violations = rt.check_forward_index();
    ASSERT_TRUE(violations.empty())
        << "step " << step << ": " << violations.front();
    expect_match_equals_scan(rt, rng, step % 10 == 0 ? 24 : 6);
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
  expect_match_equals_scan(rt, rng);
}

// Candidate queries issued while a batch is still open must stay complete:
// pending (not yet filed) insertions are still reported, with no duplicate
// links or double-counted entries.
TEST(ForwardIndexBatchTest, MatchDuringOpenBatchStaysExact) {
  RoutingTables rt;
  const Filter f = Filter::build().attr("x").ge(0).le(100);
  rt.apply(RoutingMutation::add_sub({{10, 1}, f}, Hop::of_broker(2)));
  {
    RoutingTables::MutationBatch batch(rt);
    rt.prt().upsert({{10, 2}, f}, Hop::of_broker(3));
    rt.prt().upsert({{10, 3}, f}, Hop::of_broker(3));
    rt.prt().erase({10, 1});
    const Publication p = make_publication({1, 1}, 50);
    const MatchResult got = rt.match(p);
    const MatchResult want = match_scan(rt, p);
    EXPECT_EQ(got.links, want.links);
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.matched, 2u);
  }
  EXPECT_TRUE(rt.check_forward_index().empty());
}

// End-to-end: a small mobility scenario leaves every broker's index structurally consistent, and match() still
// equals the scan oracle on the final tables.
TEST(ForwardIndexScenarioTest, BrokersStayConsistentThroughMovements) {
  ScenarioConfig cfg;
  cfg.overlay = Overlay::paper_default();
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 40;
  cfg.duration = 80.0;
  cfg.warmup = 20.0;
  cfg.seed = 13;
  Scenario s(cfg);
  s.run();
  std::mt19937_64 rng(7);
  for (BrokerId b = 1; b <= cfg.overlay->broker_count(); ++b) {
    RoutingTables& rt = s.net().broker(b).tables();
    const std::vector<std::string> violations = rt.check_forward_index();
    EXPECT_TRUE(violations.empty())
        << "broker " << b << ": " << violations.front();
    expect_match_equals_scan(rt, rng);
  }
}

}  // namespace
}  // namespace tmps
