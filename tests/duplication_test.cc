// At-least-once link delivery: every protocol handler must be idempotent,
// so duplicated frames (retransmissions) never violate the guarantees.
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

struct Rig {
  explicit Rig(double dup_prob, MobilityProtocol proto, std::uint64_t seed)
      : overlay(Overlay::chain(5)),
        net(overlay,
            [&] {
              BrokerConfig bc;
              bc.subscription_covering =
                  proto == MobilityProtocol::Traditional;
              bc.advertisement_covering = bc.subscription_covering;
              return bc;
            }(),
            [&] {
              NetworkProfile p;
              p.duplicate_prob = dup_prob;
              p.seed = seed;
              return p;
            }(),
            [&] {
              MobilityConfig mc;
              mc.protocol = proto;
              return mc;
            }()) {
    for (BrokerId b = 1; b <= 5; ++b) {
      net.engine(b).set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            ++delivered[{c, p.id()}];
          });
    }
    net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    net.run();
    net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2), out);
    });
    net.run();
  }

  Overlay overlay;
  SimNetwork net;
  std::map<std::pair<ClientId, PublicationId>, int> delivered;
};

class Duplication : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Duplication, ReconfigMoveSurvivesDuplicatedFrames) {
  Rig r(0.3, MobilityProtocol::Reconfiguration, GetParam());
  TxnId txn = kNoTxn;
  r.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  r.net.run();
  EXPECT_EQ(r.net.engine(2).source_state(txn), SourceCoordState::Commit);
  ASSERT_NE(r.net.engine(5).find_client(kMover), nullptr);
  EXPECT_EQ(r.net.engine(5).find_client(kMover)->state(), ClientState::Started);
  // One live copy, no shadow residue.
  int copies = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    if (r.net.engine(b).find_client(kMover)) ++copies;
  }
  EXPECT_EQ(copies, 1);
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(r.net.broker(b).tables().has_pending_shadows()) << b;
  }
  // Exactly-once delivery still holds after the move.
  const Publication p = make_publication({kPublisher, 7}, 100, 0);
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  r.net.run();
  EXPECT_EQ((r.delivered[{kMover, p.id()}]), 1);
}

TEST_P(Duplication, TraditionalMoveSurvivesDuplicatedFrames) {
  Rig r(0.3, MobilityProtocol::Traditional, GetParam());
  r.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kMover, 5, out);
  });
  r.net.run();
  int copies = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    const ClientStub* stub = r.net.engine(b).find_client(kMover);
    if (stub) {
      ++copies;
      EXPECT_EQ(stub->state(), ClientState::Started);
    }
  }
  EXPECT_EQ(copies, 1);
  // No duplicate deliveries even with duplicated publish frames.
  const Publication p = make_publication({kPublisher, 7}, 100, 0);
  r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  r.net.run();
  EXPECT_LE((r.delivered[{kMover, p.id()}]), 1);
}

TEST_P(Duplication, RepeatedMovesUnderDuplication) {
  Rig r(0.25, MobilityProtocol::Reconfiguration, GetParam());
  for (int round = 0; round < 4; ++round) {
    const BrokerId from = (round % 2 == 0) ? 2 : 5;
    const BrokerId to = (round % 2 == 0) ? 5 : 2;
    TxnId txn = kNoTxn;
    r.net.run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
      txn = e.initiate_move(kMover, to, out);
    });
    r.net.run();
    ASSERT_NE(txn, kNoTxn) << round;
    const Publication p =
        make_publication({kPublisher, static_cast<std::uint32_t>(50 + round)},
                         100, 0);
    r.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(kPublisher, Publication(p), out);
    });
    r.net.run();
    EXPECT_EQ((r.delivered[{kMover, p.id()}]), 1) << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Duplication,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace tmps
