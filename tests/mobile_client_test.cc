// The MobileClient facade: location tracking across movements, pub/sub ops
// routed to the current host, pause/resume, and the routing auditor.
#include <gtest/gtest.h>

#include "core/mobile_client.h"
#include "pubsub/workload.h"
#include "routing_reference.h"
#include "sim/network.h"

namespace tmps {
namespace {

BrokerConfig no_covering() {
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  return bc;
}

struct Rig {
  Rig() : overlay(Overlay::chain(5)), net(overlay, no_covering()) {
    for (BrokerId b = 1; b <= 5; ++b) {
      engines.push_back(std::make_unique<MobilityEngine>(net.broker(b), net));
      engines.back()->set_transmit([this, b](Broker::Outputs out) {
        net.transmit(b, std::move(out));
      });
      engines.back()->set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries.emplace_back(c, p.id());
          });
      directory.add(*engines.back());
    }
  }

  Overlay overlay;
  SimNetwork net;
  std::vector<std::unique_ptr<MobilityEngine>> engines;
  EngineDirectory directory;
  std::vector<std::pair<ClientId, PublicationId>> deliveries;
};

TEST(MobileClient, ConnectAndLocate) {
  Rig r;
  MobileClient c = MobileClient::connect(7, 2, r.directory);
  EXPECT_TRUE(c.connected());
  EXPECT_EQ(c.location(), 2u);
  EXPECT_EQ(c.state(), ClientState::Started);
}

TEST(MobileClient, UnknownClientIsDisconnected) {
  Rig r;
  MobileClient ghost(999, r.directory);
  EXPECT_FALSE(ghost.connected());
  EXPECT_EQ(ghost.location(), kNoBroker);
  EXPECT_EQ(ghost.state(), ClientState::Init);
  EXPECT_EQ(ghost.move_to(3), kNoTxn);
  ghost.publish(make_publication({0, 0}, 1, 0));  // harmless no-op
}

TEST(MobileClient, EndToEndViaFacade) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  MobileClient sub = MobileClient::connect(2, 5, r.directory);
  pub.advertise(full_space_advertisement());
  r.net.run();
  sub.subscribe(workload_filter(WorkloadKind::Covered, 1));
  r.net.run();
  pub.publish(make_publication({0, 0}, 42, 0));
  r.net.run();
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].first, 2u);
}

TEST(MobileClient, LocationFollowsMovement) {
  Rig r;
  MobileClient c = MobileClient::connect(7, 2, r.directory);
  c.subscribe(workload_filter(WorkloadKind::Covered, 1));
  r.net.run();
  const TxnId txn = c.move_to(5);
  EXPECT_NE(txn, kNoTxn);
  r.net.run();
  EXPECT_EQ(c.location(), 5u);
  EXPECT_EQ(c.state(), ClientState::Started);
  // And back again.
  c.move_to(1);
  r.net.run();
  EXPECT_EQ(c.location(), 1u);
}

TEST(MobileClient, PauseAndResume) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  MobileClient c = MobileClient::connect(7, 3, r.directory);
  pub.advertise(full_space_advertisement());
  r.net.run();
  c.subscribe(workload_filter(WorkloadKind::Covered, 1));
  r.net.run();

  c.pause();
  EXPECT_EQ(c.state(), ClientState::PauseOper);
  pub.publish(make_publication({0, 0}, 10, 0));
  r.net.run();
  EXPECT_TRUE(r.deliveries.empty()) << "paused client must buffer";
  c.resume();
  EXPECT_EQ(c.state(), ClientState::Started);
  ASSERT_EQ(r.deliveries.size(), 1u) << "buffer flushed on resume";
}

TEST(MobileClient, MoveWhilePausedForOperation) {
  Rig r;
  MobileClient c = MobileClient::connect(7, 2, r.directory);
  c.subscribe(workload_filter(WorkloadKind::Covered, 1));
  r.net.run();
  c.pause();
  const TxnId txn = c.move_to(4);
  EXPECT_NE(txn, kNoTxn);
  r.net.run();
  EXPECT_EQ(c.location(), 4u);
}

TEST(RoutingAuditor, CleanNetworkPasses) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  MobileClient sub = MobileClient::connect(2, 5, r.directory);
  const auto aid = pub.advertise(full_space_advertisement());
  r.net.run();
  const Filter f = workload_filter(WorkloadKind::Covered, 1);
  const auto sid = sub.subscribe(f);
  r.net.run();

  RoutingAuditor auditor(
      r.overlay, [&](BrokerId b) -> const RoutingTables& { return r.net.broker(b).tables(); });
  auditor.expect_publisher(aid, full_space_advertisement(), 1);
  auditor.expect_subscriber(sid, f, 5);
  EXPECT_TRUE(auditor.audit().empty());
  EXPECT_TRUE(auditor.audit_no_shadows().empty());
}

TEST(RoutingAuditor, ConsistentAfterManyMoves) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  const auto aid = pub.advertise(full_space_advertisement());
  r.net.run();
  MobileClient c = MobileClient::connect(7, 2, r.directory);
  const Filter f = workload_filter(WorkloadKind::Covered, 1);
  const auto sid = c.subscribe(f);
  r.net.run();

  for (BrokerId target : {5u, 3u, 4u, 2u, 5u, 1u}) {
    c.move_to(target);
    r.net.run();
    RoutingAuditor auditor(
        r.overlay, [&](BrokerId b) -> const RoutingTables& {
          return r.net.broker(b).tables();
        });
    auditor.expect_publisher(aid, full_space_advertisement(), 1);
    auditor.expect_subscriber(sid, f, target);
    const auto violations = auditor.audit();
    EXPECT_TRUE(violations.empty())
        << "after move to B" << target << ": "
        << (violations.empty() ? "" : violations[0].to_string());
    EXPECT_TRUE(auditor.audit_no_shadows().empty());
  }
}

TEST(RoutingAuditor, DetectsBrokenPath) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  const auto aid = pub.advertise(full_space_advertisement());
  r.net.run();
  MobileClient c = MobileClient::connect(7, 5, r.directory);
  const Filter f = workload_filter(WorkloadKind::Covered, 1);
  const auto sid = c.subscribe(f);
  r.net.run();

  // Sabotage: erase the subscription's entry at a mid-path broker.
  r.net.broker(3).tables().prt().erase(sid);

  RoutingAuditor auditor(
      r.overlay, [&](BrokerId b) -> const RoutingTables& { return r.net.broker(b).tables(); });
  auditor.expect_publisher(aid, full_space_advertisement(), 1);
  auditor.expect_subscriber(sid, f, 5);
  const auto violations = auditor.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("no PRT entry at B3"),
            std::string::npos)
      << violations[0].to_string();
}

TEST(RoutingAuditor, DetectsMisdirectedEntry) {
  Rig r;
  MobileClient pub = MobileClient::connect(1, 1, r.directory);
  const auto aid = pub.advertise(full_space_advertisement());
  r.net.run();
  MobileClient c = MobileClient::connect(7, 5, r.directory);
  const Filter f = workload_filter(WorkloadKind::Covered, 1);
  const auto sid = c.subscribe(f);
  r.net.run();

  // Sabotage: point the mid-path entry back towards the publisher (loop).
  r.net.broker(3).tables().prt().find(sid)->lasthop = Hop::of_broker(2);

  RoutingAuditor auditor(
      r.overlay, [&](BrokerId b) -> const RoutingTables& { return r.net.broker(b).tables(); });
  auditor.expect_publisher(aid, full_space_advertisement(), 1);
  auditor.expect_subscriber(sid, f, 5);
  const auto violations = auditor.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("loop"), std::string::npos);
}

}  // namespace
}  // namespace tmps
