// End-to-end tests of the reconfiguration movement protocol on the simulated
// network: transactional properties (Sec. 3), routing-table shape after
// moves (Sec. 4.4 claims), message cost, and abort paths.
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

class ReconfigFixture : public ::testing::Test {
 protected:
  explicit ReconfigFixture(Overlay overlay = Overlay::chain(5))
      : overlay_(std::move(overlay)), net_(overlay_) {
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      MobilityConfig cfg;
      engines_.push_back(
          std::make_unique<MobilityEngine>(net_.broker(b), net_, cfg));
      auto* eng = engines_.back().get();
      eng->set_transmit(
          [this, b](Broker::Outputs out) { net_.transmit(b, std::move(out)); });
      eng->set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries_.emplace_back(c, p.id());
          });
    }
  }

  MobilityEngine& engine(BrokerId b) { return *engines_[b - 1]; }

  void run_op(BrokerId b, const std::function<void(MobilityEngine&,
                                                   Broker::Outputs&)>& op) {
    Broker::Outputs out;
    op(engine(b), out);
    net_.transmit(b, std::move(out));
    net_.run();
  }

  /// Counts deliveries of a given publication to a given client.
  int delivered(ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& [cc, pid] : deliveries_) {
      if (cc == c && pid == id) ++n;
    }
    return n;
  }

  Overlay overlay_;
  SimNetwork net_;
  std::vector<std::unique_ptr<MobilityEngine>> engines_;
  std::vector<std::pair<ClientId, PublicationId>> deliveries_;
};

class ReconfigChain : public ReconfigFixture {
 protected:
  ReconfigChain() {
    // Publisher at broker 1 advertising the full space; mover at broker 2
    // subscribed to part of it.
    run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    run_op(2, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      // Covered workload subscription #2: x in [0, 500].
      sub_id_ = e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2),
                            out);
    });
  }

  TxnId move(BrokerId from, BrokerId to) {
    TxnId txn = kNoTxn;
    run_op(from, [&](MobilityEngine& e, Broker::Outputs& out) {
      txn = e.initiate_move(kMover, to, out);
    });
    return txn;
  }

  Publication publish(std::uint32_t seq, std::int64_t x = 100) {
    Publication p = make_publication({kPublisher, seq}, x, 0);
    run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(kPublisher, Publication(p), out);
    });
    return p;
  }

  SubscriptionId sub_id_;
};

TEST_F(ReconfigChain, MoveCommitsAndTransfersClient) {
  const TxnId txn = move(2, 5);
  ASSERT_NE(txn, kNoTxn);
  EXPECT_EQ(engine(2).source_state(txn), SourceCoordState::Commit);
  EXPECT_EQ(engine(5).target_state(txn), TargetCoordState::Commit);
  EXPECT_EQ(engine(2).find_client(kMover), nullptr);
  ASSERT_NE(engine(5).find_client(kMover), nullptr);
  EXPECT_EQ(engine(5).find_client(kMover)->state(), ClientState::Started);
}

TEST_F(ReconfigChain, ExactlyOneClientInstanceAfterMove) {
  move(2, 5);
  int instances = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    if (engine(b).find_client(kMover)) ++instances;
  }
  EXPECT_EQ(instances, 1);
}

TEST_F(ReconfigChain, RoutingEntriesFlipAlongPathOnly) {
  move(2, 5);
  // Post-move: subscription last hops must point towards broker 5.
  // Broker 1 (off the move path 2..5? broker 1 is off-path).
  const auto* e1 = net_.broker(1).tables().prt().find(sub_id_);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->lasthop, Hop::of_broker(2)) << "off-path broker unchanged";
  for (BrokerId b = 2; b <= 4; ++b) {
    const auto* e = net_.broker(b).tables().prt().find(sub_id_);
    ASSERT_NE(e, nullptr) << b;
    EXPECT_EQ(e->lasthop, Hop::of_broker(b + 1)) << b;
    EXPECT_FALSE(e->shadow_lasthop.has_value()) << b;
  }
  const auto* e5 = net_.broker(5).tables().prt().find(sub_id_);
  ASSERT_NE(e5, nullptr);
  EXPECT_EQ(e5->lasthop, Hop::of_client(kMover));
}

TEST_F(ReconfigChain, NoShadowStateLeaksAfterCommit) {
  move(2, 5);
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(net_.broker(b).tables().has_pending_shadows()) << b;
  }
}

TEST_F(ReconfigChain, DeliveryBeforeAndAfterMove) {
  const auto p1 = publish(1);
  EXPECT_EQ(delivered(kMover, p1.id()), 1);
  move(2, 5);
  const auto p2 = publish(2);
  EXPECT_EQ(delivered(kMover, p2.id()), 1);
  const auto p3 = publish(3, /*x=*/9999);  // outside the subscription
  EXPECT_EQ(delivered(kMover, p3.id()), 0);
}

TEST_F(ReconfigChain, RepeatedMovesStayConsistent) {
  for (int round = 0; round < 4; ++round) {
    const BrokerId from = (round % 2 == 0) ? 2 : 5;
    const BrokerId to = (round % 2 == 0) ? 5 : 2;
    move(from, to);
    const auto p = publish(100 + round);
    EXPECT_EQ(delivered(kMover, p.id()), 1) << "round " << round;
  }
  int instances = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    if (engine(b).find_client(kMover)) ++instances;
  }
  EXPECT_EQ(instances, 1);
}

TEST_F(ReconfigChain, MessageCostIsPathLocal) {
  net_.stats().reset_traffic();
  const TxnId txn = move(2, 5);
  // negotiate + approve + state + ack, each over the 3-hop path 2..5,
  // plus nothing else: 12 messages total.
  EXPECT_EQ(net_.stats().messages_for_cause(txn), 12u);
  // No traffic on the off-path link 1-2.
  auto it = net_.stats().link_counts().find({2, 1});
  const std::uint64_t off =
      it == net_.stats().link_counts().end() ? 0 : it->second;
  EXPECT_EQ(off, 0u);
}

TEST_F(ReconfigChain, NotificationsDuringMoveNeitherLostNorDuplicated) {
  // Stop the network mid-move: inject publications while the movement
  // messages are in flight, then let everything drain.
  Broker::Outputs out;
  engine(2).initiate_move(kMover, 5, out);
  net_.transmit(2, std::move(out));

  // Interleave publications with the protocol's progress.
  std::vector<PublicationId> pubs;
  for (int i = 0; i < 20; ++i) {
    net_.events().schedule_at(0.0005 * i, [this, i] {
      Broker::Outputs o;
      Publication p = make_publication({kPublisher, static_cast<std::uint32_t>(1000 + i)}, 50, 0);
      engine(1).publish(kPublisher, std::move(p), o);
      net_.transmit(1, std::move(o));
    });
    pubs.push_back({kPublisher, static_cast<std::uint32_t>(1000 + i)});
  }
  net_.run();

  for (const auto& id : pubs) {
    EXPECT_EQ(delivered(kMover, id), 1) << "pub " << to_string(id);
  }
}

TEST_F(ReconfigChain, RejectedMoveKeepsClientAtSource) {
  engine(5).mutable_config().accept_clients = false;
  const TxnId txn = move(2, 5);
  EXPECT_EQ(engine(2).source_state(txn), SourceCoordState::Abort);
  ASSERT_NE(engine(2).find_client(kMover), nullptr);
  EXPECT_EQ(engine(2).find_client(kMover)->state(), ClientState::Started);
  EXPECT_EQ(engine(5).find_client(kMover), nullptr);
  // Delivery continues at the source as if nothing happened.
  const auto p = publish(7);
  EXPECT_EQ(delivered(kMover, p.id()), 1);
  // No shadow state anywhere (the target never approved).
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(net_.broker(b).tables().has_pending_shadows()) << b;
  }
}

TEST_F(ReconfigChain, NotificationsBufferedDuringRejectedMoveAreDelivered) {
  engine(5).mutable_config().accept_clients = false;
  Broker::Outputs out;
  engine(2).initiate_move(kMover, 5, out);
  net_.transmit(2, std::move(out));
  // Publication lands while the (doomed) negotiation is in flight.
  Broker::Outputs o;
  Publication p = make_publication({kPublisher, 42}, 50, 0);
  engine(1).publish(kPublisher, Publication(p), o);
  net_.transmit(1, std::move(o));
  net_.run();
  EXPECT_EQ(delivered(kMover, p.id()), 1);
}

TEST_F(ReconfigChain, AdmissionCapacityLimit) {
  engine(5).mutable_config().max_hosted_clients = 0;
  const TxnId txn = move(2, 5);
  EXPECT_EQ(engine(2).source_state(txn), SourceCoordState::Abort);
  EXPECT_NE(engine(2).find_client(kMover), nullptr);
}

TEST_F(ReconfigChain, MoveToSelfOrUnknownBrokerRefusedLocally) {
  Broker::Outputs out;
  EXPECT_EQ(engine(2).initiate_move(kMover, 2, out), kNoTxn);
  EXPECT_EQ(engine(2).initiate_move(kMover, 99, out), kNoTxn);
  EXPECT_EQ(engine(2).initiate_move(999, 5, out), kNoTxn);  // unknown client
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(engine(2).find_client(kMover)->state(), ClientState::Started);
}

TEST_F(ReconfigChain, ConcurrentSecondMoveRefusedWhileMoving) {
  Broker::Outputs out;
  const TxnId t1 = engine(2).initiate_move(kMover, 5, out);
  ASSERT_NE(t1, kNoTxn);
  Broker::Outputs out2;
  EXPECT_EQ(engine(2).initiate_move(kMover, 4, out2), kNoTxn);
  net_.transmit(2, std::move(out));
  net_.run();
  EXPECT_EQ(engine(2).source_state(t1), SourceCoordState::Commit);
}

TEST_F(ReconfigChain, PublishWhileMovingIsQueuedAndReplayedAtTarget) {
  // Make the mover a publisher too.
  run_op(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.advertise(kMover, full_space_advertisement(), out);
  });
  // A stationary subscriber at broker 1 listens to everything.
  run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(700);
    e.subscribe(700, workload_filter(WorkloadKind::Covered, 1), out);
  });

  Broker::Outputs out;
  engine(2).initiate_move(kMover, 5, out);
  // Publish before transmitting the movement traffic: the stub must queue.
  Broker::Outputs o2;
  Publication p = make_publication({0, 0}, 77, 0);  // id assigned by stub
  engine(2).publish(kMover, std::move(p), o2);
  EXPECT_TRUE(o2.empty()) << "publish while moving must be queued";
  net_.transmit(2, std::move(out));
  net_.run();

  // The queued publication was replayed from the target after the move.
  int got = 0;
  for (const auto& [c, id] : deliveries_) {
    if (c == 700 && id.client == kMover) ++got;
  }
  EXPECT_EQ(got, 1);
}

// --- moving a publisher (advertisement reconfiguration, Sec. 4.4) ------------

class ReconfigPublisherMove : public ReconfigFixture {
 protected:
  ReconfigPublisherMove() {
    // Mover is a publisher at broker 2; subscribers at brokers 1 and 4.
    run_op(2, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      adv_id_ = e.advertise(kMover, full_space_advertisement(), out);
    });
    run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(701);
      e.subscribe(701, workload_filter(WorkloadKind::Covered, 1), out);
    });
    run_op(4, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(704);
      e.subscribe(704, workload_filter(WorkloadKind::Covered, 1), out);
    });
  }
  AdvertisementId adv_id_;
};

TEST_F(ReconfigPublisherMove, AdvLastHopsFlipAlongPath) {
  run_op(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kMover, 5, out);
  });
  // Brokers 2..4 now see the advertisement coming from the target side.
  for (BrokerId b = 2; b <= 4; ++b) {
    const auto* e = net_.broker(b).tables().srt().find(adv_id_);
    ASSERT_NE(e, nullptr) << b;
    EXPECT_EQ(e->lasthop, Hop::of_broker(b + 1)) << b;
  }
  const auto* e5 = net_.broker(5).tables().srt().find(adv_id_);
  ASSERT_NE(e5, nullptr);
  EXPECT_EQ(e5->lasthop, Hop::of_client(kMover));
  // Off-path broker 1 unchanged.
  EXPECT_EQ(net_.broker(1).tables().srt().find(adv_id_)->lasthop,
            Hop::of_broker(2));
}

TEST_F(ReconfigPublisherMove, PublisherDeliversFromNewLocation) {
  run_op(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kMover, 5, out);
  });
  run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kMover, make_publication({0, 0}, 100, 0), out);
  });
  int got1 = 0, got4 = 0;
  for (const auto& [c, id] : deliveries_) {
    if (id.client != kMover) continue;
    if (c == 701) ++got1;
    if (c == 704) ++got4;
  }
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got4, 1);
}

}  // namespace
}  // namespace tmps
