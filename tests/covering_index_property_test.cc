// Randomized equivalence test of the covering index against the full-scan
// oracles: every workload shape of Fig. 7 (plus adversarial rest-list and
// unsatisfiable filters), random table mutations through the delta API, raw
// forwarded_to flips and movement-shadow install/commit/abort — after every
// mutation the index must pass its structural consistency check, and all
// index-backed covering queries must return exactly what the `*_scan`
// reference implementations (tests/routing_reference.h) return.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "core/scenario.h"
#include "pubsub/workload.h"
#include "routing/routing_tables.h"
#include "routing_reference.h"

namespace tmps {
namespace {

template <class Entry>
std::vector<EntityId> ids_of(const std::vector<Entry*>& es) {
  std::vector<EntityId> out;
  for (const Entry* e : es) out.push_back(e->item.id);
  std::sort(out.begin(), out.end());
  return out;
}

/// Index answers must equal the scan oracles exactly for every row of
/// `table` and every probed link. `need` is the table's un-quench link-need
/// test, index-backed and by scan.
template <class Item>
void expect_table_matches_scans(
    RouteTable<Item>& table, const std::vector<Hop>& links,
    const typename RouteTable<Item>::LinkNeed& need,
    const typename RouteTable<Item>::LinkNeed& need_scan) {
  std::vector<EntityId> ids;
  for (const auto& [id, e] : table) ids.push_back(id);
  for (const EntityId& id : ids) {
    RouteEntry<Item>* e = table.find(id);
    ASSERT_NE(e, nullptr);
    const Filter f = e->item.filter;
    EXPECT_EQ(ids_of(table.intersecting(f)),
              ids_of(intersecting_scan(table, f)));
    for (Hop link : links) {
      EXPECT_EQ(table.covered_on_link(id, f, link),
                covered_on_link_scan(table, id, f, link))
          << to_string(id);
      EXPECT_EQ(ids_of(table.strictly_covered_on_link(id, f, link)),
                ids_of(strictly_covered_on_link_scan(table, id, f, link)))
          << to_string(id);
      EXPECT_EQ(ids_of(table.unquench_candidates(*e, link, need)),
                ids_of(unquench_candidates_scan(table, *e, link, need_scan)))
          << to_string(id);
      if (need) {
        EXPECT_EQ(need(f, link), need_scan(f, link)) << to_string(id);
      }
    }
  }
}

void expect_index_matches_scans(RoutingTables& rt) {
  const std::vector<Hop> links = {Hop::of_broker(1), Hop::of_broker(2),
                                  Hop::of_broker(3), Hop::of_broker(9),
                                  Hop::of_client(1), Hop::of_client(2)};
  expect_table_matches_scans(rt.prt(), links, rt.link_need(),
                             link_need_scan(rt));
  expect_table_matches_scans(rt.srt(), links, {}, {});
}

class CoverIndexProperty : public ::testing::TestWithParam<WorkloadKind> {};

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CoverIndexProperty,
                         ::testing::Values(WorkloadKind::Covered,
                                           WorkloadKind::Chained,
                                           WorkloadKind::Tree,
                                           WorkloadKind::Distinct,
                                           WorkloadKind::Random),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST_P(CoverIndexProperty, RandomMutationsAgreeWithScanOracles) {
  const WorkloadKind kind = GetParam();
  std::mt19937_64 rng(0xC0FEu + static_cast<std::uint64_t>(kind));
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
    if (roll == 0) {  // unsatisfiable
      return Filter::build().attr("x").eq(1).eq(2);
    }
    if (roll <= 2) {  // no equality predicate: exercises the rest list
      const std::int64_t lo = static_cast<std::int64_t>(rng() % 5000);
      const std::int64_t hi = lo + 1 + static_cast<std::int64_t>(rng() % 3000);
      return Filter::build().attr("x").ge(lo).le(hi);
    }
    const int i = 1 + static_cast<int>(rng() % 10);
    const std::int64_t group = static_cast<std::int64_t>(rng() % 3);
    return workload_filter_at(kind, i, group, rng());
  };

  for (int step = 0; step < 250; ++step) {
    switch (rng() % 12) {
      case 0:
      case 1:
      case 2: {  // add a subscription through the delta API
        const Subscription s{{1000 + rng() % 20, ++seq}, rand_filter()};
        rt.add_sub(s, rand_link());
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
        const RoutingDelta d = rt.remove_sub(
            subs[k].id, wrong_hop ? Hop::of_broker(77) : e->lasthop);
        if (d.applied) subs.erase(subs.begin() + static_cast<long>(k));
        break;
      }
      case 5: {  // add an advertisement (flooded over the broker links)
        const Advertisement a{{2000 + rng() % 10, ++seq}, rand_filter()};
        rt.add_adv(a, rand_link(),
                   {Hop::of_broker(1), Hop::of_broker(2), Hop::of_broker(3)});
        advs.push_back({a.id, a.filter});
        break;
      }
      case 6: {
        if (advs.empty()) break;
        const std::size_t k = rng() % advs.size();
        const AdvEntry* e = rt.srt().find(advs[k].id);
        ASSERT_NE(e, nullptr);
        const RoutingDelta d = rt.remove_adv(advs[k].id, e->lasthop);
        if (d.applied) advs.erase(advs.begin() + static_cast<long>(k));
        break;
      }
      case 7:
      case 8: {  // raw forwarded_to flip: the index must not care
        if (subs.empty()) break;
        SubEntry* e = rt.prt().find(subs[rng() % subs.size()].id);
        ASSERT_NE(e, nullptr);
        const Hop link = rand_link(/*brokers_only=*/true);
        if (e->forwarded_to.erase(link) == 0) e->forwarded_to.insert(link);
        break;
      }
      case 9: {  // install a movement shadow (fresh or on an existing entry)
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
      case 10: {  // adv shadow
        const TxnId txn = ++next_txn;
        const Advertisement a{{4000 + rng() % 10, ++seq}, rand_filter()};
        rt.srt().install_shadow(a, rand_link(), txn);
        pending.push_back({a.id, a.filter, txn, true, true});
        break;
      }
      case 11: {  // resolve a pending shadow: commit or abort
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
    }

    const std::vector<std::string> violations = rt.check_cover_index();
    ASSERT_TRUE(violations.empty())
        << "step " << step << ": " << violations.front();
    if (step % 10 == 0) expect_index_matches_scans(rt);
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
  expect_index_matches_scans(rt);
}

// End-to-end: a small mobility scenario leaves every broker's covering index structurally consistent, and index answers still
// equal the scan oracles on the final tables.
TEST(CoverIndexScenarioTest, BrokersStayConsistentThroughMovements) {
  ScenarioConfig cfg;
  cfg.overlay = Overlay::paper_default();
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 40;
  cfg.duration = 80.0;
  cfg.warmup = 20.0;
  cfg.seed = 11;
  Scenario s(cfg);
  s.run();
  for (BrokerId b = 1; b <= cfg.overlay->broker_count(); ++b) {
    RoutingTables& rt = s.net().broker(b).tables();
    const std::vector<std::string> violations = rt.check_cover_index();
    EXPECT_TRUE(violations.empty())
        << "broker " << b << ": " << violations.front();
    expect_index_matches_scans(rt);
  }
}

}  // namespace
}  // namespace tmps
