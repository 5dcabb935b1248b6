// Movement guarantees under failure injection. The fault model (Sec. 3.5)
// masks crashes as delays — messages are never lost — so the transactional
// properties must hold through broker crashes and link failures.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "failure/failure_injector.h"
#include "pubsub/workload.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

struct MoveFixture {
  MoveFixture() : overlay(Overlay::chain(5)), net(overlay) {
    for (BrokerId b = 1; b <= 5; ++b) {
      net.engine(b).set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries.emplace_back(c, p.id());
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

  int delivered(ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& [cc, pid] : deliveries) {
      if (cc == c && pid == id) ++n;
    }
    return n;
  }

  Overlay overlay;
  SimNetwork net;
  std::vector<std::pair<ClientId, PublicationId>> deliveries;
};

TEST(FailureInjector, DeterministicPlanForSeed) {
  Overlay o = Overlay::paper_default();
  SimNetwork n1(o), n2(o);
  FailurePlan plan;
  plan.broker_crash_rate = 0.5;
  plan.link_failure_rate = 0.5;
  plan.seed = 3;
  FailureInjector a(n1, plan), b(n2, plan);
  a.schedule_until(100);
  b.schedule_until(100);
  ASSERT_EQ(a.log().size(), b.log().size());
  ASSERT_GT(a.log().size(), 10u);
  for (std::size_t i = 0; i < a.log().size(); ++i) {
    EXPECT_EQ(a.log()[i].at, b.log()[i].at);
    EXPECT_EQ(a.log()[i].broker, b.log()[i].broker);
  }
}

TEST(FailureInjector, ZeroRatesScheduleNothing) {
  Overlay o = Overlay::chain(3);
  SimNetwork net(o);
  FailureInjector inj(net, {});
  inj.schedule_until(1000);
  EXPECT_TRUE(inj.log().empty());
}

TEST(FailureMovement, MoveCompletesThroughMidPathBrokerCrash) {
  MoveFixture f;
  FailureInjector inj(f.net, {});
  // Broker 3 (mid-path) crashes just as the movement starts and stays down
  // for a second; the transaction must still commit afterwards.
  inj.crash_broker_at(3, 0.0005, 1.0);
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(txn), SourceCoordState::Commit);
  ASSERT_NE(f.net.engine(5).find_client(kMover), nullptr);
  EXPECT_EQ(f.net.engine(5).find_client(kMover)->state(), ClientState::Started);
  EXPECT_GE(f.net.now(), 1.0) << "the crash must actually have delayed things";
}

TEST(FailureMovement, MoveCompletesThroughLinkFailure) {
  MoveFixture f;
  FailureInjector inj(f.net, {});
  inj.fail_link_at(3, 4, 0.0005, 2.0);
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(txn), SourceCoordState::Commit);
  EXPECT_GE(f.net.now(), 2.0);
}

TEST(FailureMovement, NoLossNoDuplicatesThroughCrashesDuringMove) {
  MoveFixture f;
  FailureInjector inj(f.net, {});
  inj.crash_broker_at(3, 0.001, 0.5);
  inj.crash_broker_at(4, 0.2, 0.5);

  Broker::Outputs out;
  f.net.engine(2).initiate_move(kMover, 5, out);
  f.net.transmit(2, std::move(out));
  // Publications land while brokers are down and the move is in flight.
  std::vector<PublicationId> ids;
  for (int i = 0; i < 30; ++i) {
    f.net.events().schedule_at(0.05 * i, [&f, i] {
      Broker::Outputs o;
      f.net.engine(1).publish(
          kPublisher,
          make_publication({kPublisher, static_cast<std::uint32_t>(100 + i)},
                           50, 0),
          o);
      f.net.transmit(1, std::move(o));
    });
    ids.push_back({kPublisher, static_cast<std::uint32_t>(100 + i)});
  }
  f.net.run();
  for (const auto& id : ids) {
    EXPECT_EQ(f.delivered(kMover, id), 1) << to_string(id);
  }
}

TEST(FailureMovement, RandomizedFailureStorm) {
  // Repeated moves under a storm of random crashes and link failures: the
  // client must end as exactly one started copy and never miss or double-
  // deliver a publication.
  MoveFixture f;
  FailurePlan plan;
  plan.broker_crash_rate = 0.8;
  plan.broker_downtime_mean = 0.3;
  plan.link_failure_rate = 0.8;
  plan.link_downtime_mean = 0.3;
  plan.seed = 17;
  FailureInjector inj(f.net, plan);
  inj.schedule_until(30.0);

  // Alternate moves 2 <-> 5 every 2 simulated seconds.
  for (int round = 0; round < 10; ++round) {
    const BrokerId from = (round % 2 == 0) ? 2 : 5;
    const BrokerId to = (round % 2 == 0) ? 5 : 2;
    f.net.events().schedule_at(2.0 * round + 0.5, [&f, from, to] {
      Broker::Outputs o;
      f.net.engine(from).initiate_move(kMover, to, o);
      f.net.transmit(from, std::move(o));
    });
  }
  std::vector<PublicationId> ids;
  for (int i = 0; i < 50; ++i) {
    f.net.events().schedule_at(0.4 * i, [&f, i] {
      Broker::Outputs o;
      f.net.engine(1).publish(
          kPublisher,
          make_publication({kPublisher, static_cast<std::uint32_t>(500 + i)},
                           100, 0),
          o);
      f.net.transmit(1, std::move(o));
    });
    ids.push_back({kPublisher, static_cast<std::uint32_t>(500 + i)});
  }
  f.net.run();

  int copies = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    const ClientStub* stub = f.net.engine(b).find_client(kMover);
    if (stub) {
      ++copies;
      EXPECT_EQ(stub->state(), ClientState::Started);
    }
  }
  EXPECT_EQ(copies, 1);
  for (const auto& id : ids) {
    EXPECT_EQ(f.delivered(kMover, id), 1) << to_string(id);
  }
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(f.net.broker(b).tables().has_pending_shadows()) << b;
  }
}

}  // namespace
}  // namespace tmps
