// Anti-entropy repair loop (src/repair): each corrective-op class is
// demonstrated by surgically corrupting live routing state mid-run and
// asserting the sweeps heal it — orphaned client entries are retracted,
// digest exchange re-issues lost forwards, quench reconciliation restores
// missing forwarded_to links — plus the negative control showing the same
// corruption persists with repair disabled.
#include <gtest/gtest.h>

#include <memory>

#include "core/scenario.h"
#include "repair/repair_admin.h"

namespace tmps {
namespace {

// Small stationary population: subscribers at brokers 1/2, publishers
// advertising the full space at the leaves. No movements — every suspect the
// sweeps find is one we planted.
ScenarioConfig stationary() {
  ScenarioConfig cfg;
  cfg.mobility.protocol = MobilityProtocol::Reconfiguration;
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 20;
  cfg.moving_clients = 0;
  cfg.duration = 40.0;
  cfg.warmup = 10.0;
  cfg.publish_interval = 2.0;
  cfg.seed = 7;
  cfg.broker.repair.enabled = true;
  cfg.broker.repair.sweep_interval = 0.5;
  cfg.broker.repair.stale_after = 2.0;
  cfg.broker.repair.confirm_rounds = 2;
  return cfg;
}

TEST(Repair, OrphanedClientEntryIsRetracted) {
  ScenarioConfig cfg = stationary();
  const SubscriptionId orphan_id{9999, 1};
  cfg.post_build.push_back([&](Scenario& sc) {
    SimNetwork& net = sc.net();
    net.events().schedule_at(15.0, [&net, orphan_id] {
      // A subscription whose lasthop claims a locally attached client that
      // no engine hosts: the residue of a crash-interrupted hand-off.
      Subscription orphan{orphan_id, workload_filter(WorkloadKind::Covered, 1)};
      net.broker(4).tables().apply(
          RoutingMutation::add_sub(orphan, Hop::of_client(9999)));
    });
  });
  Scenario s(cfg);
  s.run();

  EXPECT_EQ(s.net().broker(4).tables().prt().find(orphan_id), nullptr);
  ASSERT_NE(s.net().repair(4), nullptr);
  EXPECT_GE(s.net().repair(4)->stats().orphans_retracted, 1u);
}

TEST(Repair, DisabledRepairLeavesOrphan) {
  ScenarioConfig cfg = stationary();
  cfg.broker.repair.enabled = false;
  const SubscriptionId orphan_id{9999, 1};
  cfg.post_build.push_back([&](Scenario& sc) {
    SimNetwork& net = sc.net();
    net.events().schedule_at(15.0, [&net, orphan_id] {
      Subscription orphan{orphan_id, workload_filter(WorkloadKind::Covered, 1)};
      net.broker(4).tables().apply(
          RoutingMutation::add_sub(orphan, Hop::of_client(9999)));
    });
  });
  Scenario s(cfg);
  s.run();

  EXPECT_NE(s.net().broker(4).tables().prt().find(orphan_id), nullptr);
  for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
    EXPECT_EQ(s.net().repair(b), nullptr);
  }
}

TEST(Repair, DigestExchangeReissuesLostForward) {
  ScenarioConfig cfg = stationary();
  SubscriptionId lost{};
  bool corrupted = false;
  cfg.post_build.push_back([&](Scenario& sc) {
    SimNetwork& net = sc.net();
    net.events().schedule_at(15.0, [&net, &lost, &corrupted] {
      // Broker 8 forwards subscriber state (homed at 1/2) towards the
      // publishers behind 9; erase one such entry at 9 as if the forward
      // had been lost, leaving 8's forwarded_to claim dangling.
      RoutingTables& rt = net.broker(9).tables();
      for (const auto& [id, e] : rt.prt()) {
        if (e.lasthop != Hop::of_broker(8)) continue;
        lost = id;
        rt.apply(RoutingMutation::remove_sub(id, e.lasthop));
        corrupted = true;
        break;
      }
    });
  });
  Scenario s(cfg);
  s.run();

  ASSERT_TRUE(corrupted) << "no forwarded entry found to corrupt";
  EXPECT_NE(s.net().broker(9).tables().prt().find(lost), nullptr)
      << "digest/request/reissue should reinstall the lost entry";
  ASSERT_NE(s.net().repair(9), nullptr);
  EXPECT_GE(s.net().repair(9)->stats().reissues_requested, 1u);
  ASSERT_NE(s.net().repair(8), nullptr);
  EXPECT_GE(s.net().repair(8)->stats().reissues_served, 1u);
}

TEST(Repair, QuenchReconcileRestoresMissingForward) {
  ScenarioConfig cfg = stationary();
  SubscriptionId quenched{};
  bool corrupted = false;
  cfg.post_build.push_back([&](Scenario& sc) {
    SimNetwork& net = sc.net();
    net.events().schedule_at(15.0, [&net, &quenched, &corrupted] {
      // Forget that a subscription was forwarded towards the advertisers
      // behind 9 — quench drift: the SRT still says the link is needed.
      RoutingTables& rt = net.broker(8).tables();
      for (auto& [id, e] : rt.prt()) {
        if (!e.forwarded_to.contains(Hop::of_broker(9))) continue;
        e.forwarded_to.erase(Hop::of_broker(9));
        quenched = id;
        corrupted = true;
        break;
      }
    });
  });
  Scenario s(cfg);
  s.run();

  ASSERT_TRUE(corrupted) << "no forwarded entry found to corrupt";
  const SubEntry* e = s.net().broker(8).tables().prt().find(quenched);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->forwarded_to.contains(Hop::of_broker(9)));
  ASSERT_NE(s.net().repair(8), nullptr);
  EXPECT_GE(s.net().repair(8)->stats().unquenches, 1u);
}

TEST(Repair, AdminJsonExposesActivity) {
  ScenarioConfig cfg = stationary();
  Scenario s(cfg);
  s.run();

  repair::RepairEngine* e = s.net().repair(1);
  ASSERT_NE(e, nullptr);
  EXPECT_GT(e->stats().rounds, 0u);
  const std::string json = repair::repair_json(*e);
  EXPECT_NE(json.find("\"broker\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ops_total\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"suspect_shadows\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace tmps
