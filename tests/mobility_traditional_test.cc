// End-to-end tests of the traditional (covering-based, end-to-end) movement
// protocol: correctness of transfer, fresh incarnations, buffering, and the
// covering pathologies the paper measures (root movement bursts).
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

MobilityConfig traditional() {
  MobilityConfig cfg;
  cfg.protocol = MobilityProtocol::Traditional;
  return cfg;
}

class TraditionalFixture : public ::testing::Test {
 protected:
  TraditionalFixture()
      : overlay_(Overlay::chain(5)),
        net_(overlay_, {}, NetworkProfile::lan(), traditional()) {
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      net_.engine(b).set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries_.emplace_back(c, p.id());
          });
      net_.engine(b).set_move_callback(
          [this](const MovementRecord& rec) { records_.push_back(rec); });
    }
    net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    net_.run();
    net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      sub_id_ = e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2),
                            out);
    });
    net_.run();
  }

  TxnId move(BrokerId from, BrokerId to) {
    TxnId txn = kNoTxn;
    net_.run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
      txn = e.initiate_move(kMover, to, out);
    });
    net_.run();
    return txn;
  }

  int delivered(ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& [cc, pid] : deliveries_) {
      if (cc == c && pid == id) ++n;
    }
    return n;
  }

  Overlay overlay_;
  SimNetwork net_;
  std::vector<std::pair<ClientId, PublicationId>> deliveries_;
  std::vector<MovementRecord> records_;
  SubscriptionId sub_id_;
};

TEST_F(TraditionalFixture, MoveTransfersClient) {
  const TxnId txn = move(2, 5);
  ASSERT_NE(txn, kNoTxn);
  EXPECT_EQ(net_.engine(2).find_client(kMover), nullptr);
  ASSERT_NE(net_.engine(5).find_client(kMover), nullptr);
  EXPECT_EQ(net_.engine(5).find_client(kMover)->state(), ClientState::Started);
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_TRUE(records_[0].committed);
  EXPECT_GT(records_[0].duration(), 0.0);
}

TEST_F(TraditionalFixture, ReissuedSubscriptionHasFreshIncarnation) {
  move(2, 5);
  const ClientStub* stub = net_.engine(5).find_client(kMover);
  ASSERT_NE(stub, nullptr);
  ASSERT_EQ(stub->subscriptions().size(), 1u);
  EXPECT_NE(stub->subscriptions()[0].id, sub_id_) << "must be re-issued";
  EXPECT_EQ(stub->subscriptions()[0].id.client, kMover);
  // The old incarnation is gone from the network.
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().prt().find(sub_id_), nullptr) << b;
  }
}

TEST_F(TraditionalFixture, DeliveryAfterMove) {
  move(2, 5);
  Publication p = make_publication({kPublisher, 9}, 100, 0);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  net_.run();
  EXPECT_EQ(delivered(kMover, p.id()), 1);
}

TEST_F(TraditionalFixture, NoDuplicatesAcrossMove) {
  // Publications in flight while the move progresses must not be delivered
  // twice (once via the old subscription, once via the new).
  Broker::Outputs out;
  net_.engine(2).initiate_move(kMover, 5, out);
  net_.transmit(2, std::move(out));
  std::vector<PublicationId> ids;
  for (int i = 0; i < 20; ++i) {
    net_.events().schedule_at(0.0004 * i, [this, i] {
      Broker::Outputs o;
      net_.engine(1).publish(
          kPublisher, make_publication({kPublisher, 100u + i}, 50, 0), o);
      net_.transmit(1, std::move(o));
    });
    ids.push_back({kPublisher, static_cast<std::uint32_t>(100 + i)});
  }
  net_.run();
  for (const auto& id : ids) {
    EXPECT_LE(delivered(kMover, id), 1) << to_string(id);
  }
}

TEST_F(TraditionalFixture, RejectedMoveResumesAtSource) {
  net_.engine(5).mutable_config().accept_clients = false;
  move(2, 5);
  ASSERT_NE(net_.engine(2).find_client(kMover), nullptr);
  EXPECT_EQ(net_.engine(2).find_client(kMover)->state(), ClientState::Started);
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_FALSE(records_[0].committed);
  Publication p = make_publication({kPublisher, 9}, 100, 0);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  net_.run();
  EXPECT_EQ(delivered(kMover, p.id()), 1);
}

TEST_F(TraditionalFixture, MoveCompletionWaitsForCascade) {
  // Per-movement message accounting includes the (un)subscription traffic.
  net_.stats().reset_traffic();
  const TxnId txn = move(2, 5);
  // At minimum: request (3 hops) + ready (3) + buffered state (3) + the
  // re-subscription propagation and old-subscription retraction.
  EXPECT_GT(net_.stats().messages_for_cause(txn), 9u);
  EXPECT_EQ(net_.outstanding(txn), 0u);
}

// --- the covering pathology (Sec. 4.4 / Fig. 11) -----------------------------

class CoveringPathology : public ::testing::Test {
 protected:
  CoveringPathology()
      : overlay_(Overlay::chain(6)),
        net_(overlay_, {}, NetworkProfile::lan(), traditional()) {
    // Publisher at broker 6; covering family (root + 9 leaves) at broker 1.
    net_.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    net_.run();
    for (int i = 1; i <= 10; ++i) {
      const ClientId c = 700 + i;
      net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
        e.connect_client(c);
        e.subscribe(c, workload_filter(WorkloadKind::Covered, i), out);
      });
      net_.run();
    }
    net_.stats().reset_traffic();
  }

  std::uint64_t move_cost(ClientId c, BrokerId from, BrokerId to) {
    TxnId txn = kNoTxn;
    net_.run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
      txn = e.initiate_move(c, to, out);
    });
    net_.run();
    return net_.stats().messages_for_cause(txn);
  }

  Overlay overlay_;
  SimNetwork net_;
};

TEST_F(CoveringPathology, MovingRootCostsFarMoreThanLeaf) {
  // Moving a covered leaf: its (un)subscriptions are quenched by the root.
  const auto leaf_cost = move_cost(702, 1, 6);
  // Moving the root: re-subscribing it at the target retracts all nine
  // leaves network-wide; unsubscribing it at the source re-propagates them.
  const auto root_cost = move_cost(701, 1, 6);
  EXPECT_GT(root_cost, 3 * leaf_cost)
      << "root=" << root_cost << " leaf=" << leaf_cost;
}

TEST_F(CoveringPathology, LeafMoveIsQuenchedCheap) {
  const auto leaf_cost = move_cost(703, 1, 6);
  // Control traffic (request/ready/state over 5 links = 15) plus the
  // re-subscription up to the first broker holding the covering root — the
  // propagation itself must be quenched.
  EXPECT_LE(leaf_cost, 25u) << leaf_cost;
}

}  // namespace
}  // namespace tmps
