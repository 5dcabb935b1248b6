// MobilityEngine client-facing API: subscription/advertisement lifecycle,
// publishing edge cases, multi-entity movements, notification interception.
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

struct Rig {
  Rig() : overlay(Overlay::chain(4)), net(overlay) {
    for (BrokerId b = 1; b <= 4; ++b) {
      net.engine(b).set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries.emplace_back(c, p.id());
          });
    }
  }
  int delivered(ClientId c) const {
    int n = 0;
    for (const auto& [cc, _] : deliveries) {
      if (cc == c) ++n;
    }
    return n;
  }

  Overlay overlay;
  SimNetwork net;
  std::vector<std::pair<ClientId, PublicationId>> deliveries;
};

TEST(EngineApi, SubscribeAssignsSequentialIds) {
  Rig r;
  r.net.engine(1).connect_client(5);
  Broker::Outputs out;
  const auto id1 = r.net.engine(1).subscribe(
      5, workload_filter(WorkloadKind::Covered, 1), out);
  const auto id2 = r.net.engine(1).subscribe(
      5, workload_filter(WorkloadKind::Covered, 2), out);
  EXPECT_EQ(id1.client, 5u);
  EXPECT_EQ(id2.seq, id1.seq + 1);
  EXPECT_EQ(r.net.engine(1).find_client(5)->subscriptions().size(), 2u);
}

TEST(EngineApi, OpsOnUnknownClientAreNoops) {
  Rig r;
  Broker::Outputs out;
  EXPECT_EQ(r.net.engine(1).subscribe(99, Filter{}, out), (SubscriptionId{}));
  EXPECT_EQ(r.net.engine(1).advertise(99, Filter{}, out), (AdvertisementId{}));
  r.net.engine(1).unsubscribe(99, {99, 1}, out);
  r.net.engine(1).unadvertise(99, {99, 1}, out);
  r.net.engine(1).publish(99, Publication{}, out);
  EXPECT_TRUE(out.empty());
}

TEST(EngineApi, UnsubscribeRemovesFromProfileAndNetwork) {
  Rig r;
  r.net.run_on(4, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(1);
    e.advertise(1, full_space_advertisement(), out);
  });
  r.net.run();
  SubscriptionId sid;
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(5);
    sid = e.subscribe(5, workload_filter(WorkloadKind::Covered, 1), out);
  });
  r.net.run();
  EXPECT_EQ(r.net.broker(3).tables().prt().size(), 1u);
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.unsubscribe(5, sid, out);
  });
  r.net.run();
  EXPECT_TRUE(r.net.engine(1).find_client(5)->subscriptions().empty());
  for (BrokerId b = 1; b <= 4; ++b) {
    EXPECT_EQ(r.net.broker(b).tables().prt().size(), 0u) << b;
  }
  // Unsubscribing twice is harmless.
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.unsubscribe(5, sid, out);
  });
  r.net.run();
}

TEST(EngineApi, UnadvertiseCleansNetwork) {
  Rig r;
  AdvertisementId aid;
  r.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(7);
    aid = e.advertise(7, full_space_advertisement(), out);
  });
  r.net.run();
  EXPECT_EQ(r.net.broker(4).tables().srt().size(), 1u);
  r.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.unadvertise(7, aid, out);
  });
  r.net.run();
  for (BrokerId b = 1; b <= 4; ++b) {
    EXPECT_EQ(r.net.broker(b).tables().srt().size(), 0u) << b;
  }
}

TEST(EngineApi, PublishAssignsIdWhenUnset) {
  Rig r;
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(7);
    e.advertise(7, full_space_advertisement(), out);
    // A *different* co-located client subscribes (a publisher never receives
    // its own publications: they share the origin hop).
    e.connect_client(8);
    e.subscribe(8, workload_filter(WorkloadKind::Covered, 1), out);
  });
  r.net.run();
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(7, make_publication({0, 0}, 100, 0), out);
  });
  r.net.run();
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].first, 8u);
  EXPECT_EQ(r.deliveries[0].second.client, 7u);  // id was stamped
}

TEST(EngineApi, MoveWithMultipleSubsAndAdvs) {
  Rig r;
  r.net.run_on(4, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(1);
    e.advertise(1, full_space_advertisement(), out);
    e.subscribe(1, workload_filter(WorkloadKind::Covered, 1, 5), out);
  });
  r.net.run();
  // The mover holds 3 subscriptions and 1 advertisement.
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(5);
    e.subscribe(5, workload_filter(WorkloadKind::Covered, 2), out);
    e.subscribe(5, workload_filter(WorkloadKind::Covered, 3), out);
    e.subscribe(5, workload_filter(WorkloadKind::Distinct, 7, 1), out);
    e.advertise(5,
                Filter::build()
                    .attr("class").eq("STOCK")
                    .attr("g").ge(5).le(5)
                    .attr("x").ge(0).le(10000),
                out);
  });
  r.net.run();
  TxnId txn = kNoTxn;
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(5, 4, out);
  });
  r.net.run();
  EXPECT_EQ(r.net.engine(1).source_state(txn), SourceCoordState::Commit);
  const ClientStub* stub = r.net.engine(4).find_client(5);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->subscriptions().size(), 3u);
  EXPECT_EQ(stub->advertisements().size(), 1u);

  // All three subscriptions deliver at the new location.
  r.net.run_on(4, [](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(1, make_publication({0, 0}, 100, 0), out);    // covered #2/#3
    e.publish(1, make_publication({0, 0}, 6200, 1), out);   // distinct #7 g1
  });
  r.net.run();
  EXPECT_GE(r.delivered(5), 2);
  // The mover's advertisement still routes: a subscriber to g=5 receives
  // the mover's publications from broker 4.
  r.net.run_on(2, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(8);
    e.subscribe(8, workload_filter(WorkloadKind::Covered, 1, 5), out);
  });
  r.net.run();
  r.net.run_on(4, [](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(5, make_publication({0, 0}, 50, 5), out);
  });
  r.net.run();
  EXPECT_EQ(r.delivered(8), 1);
}

TEST(EngineApi, NotificationToDepartedClientSwallowed) {
  Rig r;
  // A straggler notification for a client this engine no longer hosts must
  // be dropped, not crash.
  EXPECT_TRUE(r.net.engine(1).intercept_notification(
      999, make_publication({1, 1}, 5, 0)));
}

TEST(EngineApi, ConnectClientTwiceReplacesStub) {
  Rig r;
  ClientStub& a = r.net.engine(1).connect_client(5);
  a.queue_command(make_publication({5, 99}, 1, 0));
  ClientStub& b = r.net.engine(1).connect_client(5);
  EXPECT_TRUE(b.take_commands().empty()) << "fresh stub expected";
  EXPECT_EQ(r.net.engine(1).hosted_clients(), 1u);
}

TEST(EngineApi, SourceMoveRecordsVisibleForIntrospection) {
  Rig r;
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(5);
    e.subscribe(5, workload_filter(WorkloadKind::Covered, 1), out);
  });
  r.net.run();
  EXPECT_FALSE(r.net.engine(1).has_active_transactions());
  TxnId txn = kNoTxn;
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(5, 3, out);
  });
  r.net.run();
  EXPECT_TRUE(r.net.engine(1).has_active_transactions());
  EXPECT_EQ(r.net.engine(1).source_state(txn), SourceCoordState::Commit);
  EXPECT_EQ(r.net.engine(1).target_state(txn), std::nullopt);
  EXPECT_EQ(r.net.engine(3).target_state(txn), TargetCoordState::Commit);
}

TEST(EngineApi, TryInitiateMoveReportsTypedRefusals) {
  Rig r;
  r.net.engine(1).connect_client(5);
  Broker::Outputs out;
  EXPECT_EQ(r.net.engine(1).try_initiate_move(99, 2, out).refusal,
            MoveRefusal::UnknownClient);
  EXPECT_EQ(r.net.engine(1).try_initiate_move(5, 1, out).refusal,
            MoveRefusal::InvalidTarget);  // target = self
  EXPECT_EQ(r.net.engine(1).try_initiate_move(5, 42, out).refusal,
            MoveRefusal::InvalidTarget);  // not in overlay
  EXPECT_TRUE(out.empty()) << "refusals must not emit messages";
  EXPECT_FALSE(r.net.engine(1).has_active_transactions());
}

TEST(EngineApi, ConcurrentMoveRequestsOnSameClientRefusedBusy) {
  Rig r;
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(5);
    e.subscribe(5, workload_filter(WorkloadKind::Covered, 1), out);
  });
  r.net.run();

  Broker::Outputs out;
  const MoveStart first = r.net.engine(1).try_initiate_move(5, 3, out);
  ASSERT_TRUE(first.started());
  EXPECT_EQ(first.refusal, MoveRefusal::None);

  // Second request while the first transaction is still in flight: a typed
  // Busy refusal (not a silent kNoTxn), no second transaction, no traffic.
  Broker::Outputs out2;
  const MoveStart second = r.net.engine(1).try_initiate_move(5, 4, out2);
  EXPECT_FALSE(second.started());
  EXPECT_EQ(second.refusal, MoveRefusal::Busy);
  EXPECT_TRUE(out2.empty());

  r.net.transmit(1, std::move(out));
  r.net.run();
  // The first movement committed; the client is movable again at broker 3.
  ASSERT_NE(r.net.engine(3).find_client(5), nullptr);
  r.net.run_on(3, [](MobilityEngine& e, Broker::Outputs& out3) {
    EXPECT_TRUE(e.try_initiate_move(5, 4, out3).started());
  });
  r.net.run();
  EXPECT_NE(r.net.engine(4).find_client(5), nullptr);
}

TEST(EngineApi, MoveRefusalNames) {
  EXPECT_STREQ(to_string(MoveRefusal::None), "none");
  EXPECT_STREQ(to_string(MoveRefusal::UnknownClient), "unknown-client");
  EXPECT_STREQ(to_string(MoveRefusal::InvalidTarget), "invalid-target");
  EXPECT_STREQ(to_string(MoveRefusal::Busy), "busy");
  EXPECT_STREQ(to_string(MoveRefusal::NotRunning), "not-running");
}

}  // namespace
}  // namespace tmps
