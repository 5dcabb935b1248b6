// Smoke and property tests of the full experiment driver: both protocols,
// paper topology, movement patterns, audits.
#include <gtest/gtest.h>

#include "core/scenario.h"

namespace tmps {
namespace {

ScenarioConfig small(MobilityProtocol proto, WorkloadKind wl) {
  ScenarioConfig cfg;
  cfg.mobility.protocol = proto;
  // Covering quenching is only sound under the covering (traditional)
  // protocol; reconfiguration deployments disable it (see DESIGN.md).
  cfg.broker.subscription_covering = proto == MobilityProtocol::Traditional;
  cfg.broker.advertisement_covering = proto == MobilityProtocol::Traditional;
  cfg.workload = wl;
  cfg.total_clients = 40;   // 4 covering families
  cfg.duration = 60.0;
  cfg.warmup = 20.0;
  cfg.pause_between_moves = 5.0;
  cfg.publish_interval = 2.0;
  cfg.seed = 11;
  return cfg;
}

TEST(Scenario, ReconfigSmokeCompletesMovements) {
  Scenario s(small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered));
  s.run();
  EXPECT_GT(s.movements(), 0u);
  EXPECT_GT(s.latency().count(), 0u);
  EXPECT_GT(s.latency().mean(), 0.0);
  EXPECT_GT(s.messages_per_movement(), 0.0);
}

TEST(Scenario, TraditionalSmokeCompletesMovements) {
  Scenario s(small(MobilityProtocol::Traditional, WorkloadKind::Covered));
  s.run();
  EXPECT_GT(s.movements(), 0u);
  EXPECT_GT(s.latency().mean(), 0.0);
}

TEST(Scenario, NoDuplicateDeliveriesUnderReconfig) {
  Scenario s(small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered));
  s.run();
  EXPECT_GT(s.audit().delivered, 0u);
  EXPECT_EQ(s.audit().duplicates, 0u);
}

TEST(Scenario, NoDuplicateDeliveriesUnderTraditional) {
  Scenario s(small(MobilityProtocol::Traditional, WorkloadKind::Covered));
  s.run();
  EXPECT_GT(s.audit().delivered, 0u);
  EXPECT_EQ(s.audit().duplicates, 0u);
}

TEST(Scenario, ReconfigFasterThanCoveringOnCoveredWorkload) {
  // The paper's headline: reconfiguration beats the covering protocol by
  // roughly an order of magnitude on covering-heavy workloads.
  Scenario r(small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered));
  r.run();
  Scenario t(small(MobilityProtocol::Traditional, WorkloadKind::Covered));
  t.run();
  ASSERT_GT(r.latency().count(), 0u);
  ASSERT_GT(t.latency().count(), 0u);
  EXPECT_LT(r.latency().mean(), t.latency().mean());
}

TEST(Scenario, ReconfigCostIndependentOfWorkload) {
  // Messages per movement for the reconfiguration protocol must be flat
  // across covering structures (the paper's stability claim).
  double lo = 1e300, hi = 0;
  for (auto wl : {WorkloadKind::Distinct, WorkloadKind::Chained,
                  WorkloadKind::Tree, WorkloadKind::Covered}) {
    Scenario s(small(MobilityProtocol::Reconfiguration, wl));
    s.run();
    const double mpm = s.messages_per_movement();
    ASSERT_GT(mpm, 0.0);
    lo = std::min(lo, mpm);
    hi = std::max(hi, mpm);
  }
  EXPECT_LT(hi / lo, 1.5) << "lo=" << lo << " hi=" << hi;
}

TEST(Scenario, MoversAlternateBetweenPairEnds) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Distinct);
  cfg.total_clients = 10;
  cfg.moving_clients = 2;
  Scenario s(cfg);
  s.run();
  // Every committed movement of one client alternates source/target.
  std::map<ClientId, std::vector<std::pair<BrokerId, BrokerId>>> per_client;
  for (const auto& m : s.movement_records()) {
    if (m.committed) per_client[m.client].emplace_back(m.source, m.target);
  }
  ASSERT_FALSE(per_client.empty());
  for (const auto& [c, moves] : per_client) {
    for (std::size_t i = 1; i < moves.size(); ++i) {
      EXPECT_EQ(moves[i].first, moves[i - 1].second) << "client " << c;
    }
  }
}

TEST(Scenario, StationaryClientsNeverMove) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  cfg.total_clients = 20;
  cfg.moving_clients = 4;
  Scenario s(cfg);
  s.run();
  for (const auto& m : s.movement_records()) {
    EXPECT_LT(m.client, Scenario::subscriber_id(4));
    EXPECT_GE(m.client, Scenario::subscriber_id(0));
  }
}

TEST(Scenario, MoverOverrideSelectsMovers) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  cfg.total_clients = 20;
  cfg.mover_override = [](std::uint32_t k) { return k == 7; };
  Scenario s(cfg);
  s.run();
  ASSERT_GT(s.movements(), 0u);
  for (const auto& m : s.movement_records()) {
    EXPECT_EQ(m.client, Scenario::subscriber_id(7));
  }
}

TEST(Scenario, WarmupWindowExcludesEarlyMovements) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  Scenario s(cfg);
  s.run();
  for (const auto& m : s.movement_records()) {
    if (m.start < cfg.warmup) continue;
  }
  const auto all = s.movement_records().size();
  EXPECT_GE(all, s.movements());
}

TEST(Scenario, PlanetLabProfileRuns) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  cfg.net = NetworkProfile::planetlab();
  cfg.total_clients = 20;
  Scenario s(cfg);
  s.run();
  EXPECT_GT(s.movements(), 0u);
  EXPECT_EQ(s.audit().duplicates, 0u);
}

TEST(Scenario, DeterministicForFixedSeed) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  Scenario a(cfg);
  a.run();
  Scenario b(cfg);
  b.run();
  EXPECT_EQ(a.movements(), b.movements());
  EXPECT_DOUBLE_EQ(a.latency().mean(), b.latency().mean());
  EXPECT_EQ(a.stats().total_messages(), b.stats().total_messages());
}

TEST(Scenario, BackgroundChurnKeepsGuarantees) {
  // Stationary clients unsubscribe/re-subscribe continuously while movers
  // move: no duplicate deliveries, and movements still complete.
  for (auto proto :
       {MobilityProtocol::Reconfiguration, MobilityProtocol::Traditional}) {
    auto cfg = small(proto, WorkloadKind::Covered);
    cfg.moving_clients = 10;
    cfg.background_churn_interval = 4.0;
    Scenario s(cfg);
    s.run();
    EXPECT_GT(s.movements(), 0u) << to_string(proto);
    EXPECT_EQ(s.audit().duplicates, 0u) << to_string(proto);
    EXPECT_GT(s.stats().messages_by_type("unsub"), 0u)
        << "churn must generate unsubscriptions";
  }
}

TEST(Scenario, PublisherMobilityMode) {
  auto cfg = small(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
  cfg.movers_are_publishers = true;
  cfg.moving_clients = 10;
  cfg.publisher_brokers.clear();
  Scenario s(cfg);
  s.run();
  EXPECT_GT(s.movements(), 0u);
  // Movers hold advertisements, not subscriptions.
  bool found_mover_adv = false;
  for (BrokerId b = 1; b <= 14; ++b) {
    const ClientStub* stub =
        s.net().engine(b).find_client(Scenario::subscriber_id(0));
    if (stub) {
      EXPECT_EQ(stub->advertisements().size(), 1u);
      EXPECT_TRUE(stub->subscriptions().empty());
      found_mover_adv = true;
    }
  }
  EXPECT_TRUE(found_mover_adv);
}

TEST(Scenario, CoveringDisabledAblation) {
  // With covering off, the traditional protocol floods everything — more
  // messages per movement than with covering on a low-covering workload.
  auto on = small(MobilityProtocol::Traditional, WorkloadKind::Distinct);
  auto off = on;
  off.broker.subscription_covering = false;
  off.broker.advertisement_covering = false;
  Scenario son(on);
  son.run();
  Scenario soff(off);
  soff.run();
  ASSERT_GT(son.movements(), 0u);
  ASSERT_GT(soff.movements(), 0u);
  EXPECT_GT(soff.messages_per_movement(), 0.0);
}

}  // namespace
}  // namespace tmps
