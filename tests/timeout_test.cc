// Non-blocking (timeout-driven) movement transaction resolution, per the
// paper's bounded-delay network model (Sec. 4.1): when protocol messages
// are delayed beyond the bound, coordinators abort conservatively and the
// shadow routing state unwinds; the client always survives at the source.
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

struct TimeoutFixture {
  explicit TimeoutFixture(MobilityConfig cfg)
      : overlay(Overlay::chain(5)),
        net(overlay, {}, NetworkProfile::lan(), cfg) {
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

  Overlay overlay;
  SimNetwork net;
  std::vector<std::pair<ClientId, PublicationId>> deliveries;
};

MobilityConfig with_timeouts(double negotiate, double prepare) {
  MobilityConfig cfg;
  cfg.negotiate_timeout = negotiate;
  cfg.prepare_timeout = prepare;
  return cfg;
}

TEST(Timeout, NegotiateTimeoutAbortsAndClientResumes) {
  TimeoutFixture f(with_timeouts(0.5, 0.0));
  // The target broker is down long past the negotiate timeout.
  f.net.pause_broker(5, 2.0);
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(txn), SourceCoordState::Abort);
  ASSERT_NE(f.net.engine(2).find_client(kMover), nullptr);
  EXPECT_EQ(f.net.engine(2).find_client(kMover)->state(), ClientState::Started);
}

TEST(Timeout, LateApproveAfterAbortIsUnwound) {
  TimeoutFixture f(with_timeouts(0.1, 0.0));
  // Delay the whole path so the approve arrives long after the source's
  // negotiate timeout fired.
  f.net.pause_broker(4, 1.0);
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  // Source aborted; the late approve was answered with an abort that
  // unwound the shadow configuration everywhere and dismantled the target
  // copy.
  EXPECT_EQ(f.net.engine(2).source_state(txn), SourceCoordState::Abort);
  EXPECT_EQ(f.net.engine(5).target_state(txn), TargetCoordState::Abort);
  EXPECT_EQ(f.net.engine(5).find_client(kMover), nullptr);
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(f.net.broker(b).tables().has_pending_shadows()) << b;
  }
  // Exactly one copy of the client, started, at the source.
  int copies = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    if (f.net.engine(b).find_client(kMover)) ++copies;
  }
  EXPECT_EQ(copies, 1);
  EXPECT_EQ(f.net.engine(2).find_client(kMover)->state(), ClientState::Started);
}

TEST(Timeout, DeliveryIntactAfterAbortedMove) {
  TimeoutFixture f(with_timeouts(0.1, 0.0));
  f.net.pause_broker(4, 1.0);
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  const Publication p = make_publication({kPublisher, 7}, 100, 0);
  f.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  f.net.run();
  int n = 0;
  for (const auto& [c, id] : f.deliveries) {
    if (c == kMover && id == p.id()) ++n;
  }
  EXPECT_EQ(n, 1);
}

TEST(Timeout, ClientCanMoveAgainAfterAbort) {
  TimeoutFixture f(with_timeouts(0.1, 0.0));
  f.net.pause_broker(4, 1.0);
  TxnId t1 = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    t1 = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(t1), SourceCoordState::Abort);
  // Second attempt with a healthy network succeeds.
  TxnId t2 = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    t2 = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(t2), SourceCoordState::Commit);
  ASSERT_NE(f.net.engine(5).find_client(kMover), nullptr);
}

TEST(Timeout, TargetPrepareTimeoutUnwindsTargetCopy) {
  // The state message is delayed past the target's prepare timeout: the
  // target aborts conservatively and tells the source, whose client
  // resumes. (Requires the bounded-delay assumption to be *violated* — this
  // is the conservative-abort safety behaviour.)
  TimeoutFixture f(with_timeouts(0.0, 0.3));
  // Pause the source broker right after it will receive the approve, so its
  // state message is held back beyond the target's prepare timeout.
  f.net.events().schedule_at(0.020, [&f] { f.net.pause_broker(2, 2.0); });
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  // Whichever way the race resolves, safety holds: exactly one started copy
  // and no shadow leaks.
  int copies = 0;
  for (BrokerId b = 1; b <= 5; ++b) {
    const ClientStub* stub = f.net.engine(b).find_client(kMover);
    if (stub) {
      ++copies;
      EXPECT_EQ(stub->state(), ClientState::Started);
    }
  }
  EXPECT_EQ(copies, 1);
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_FALSE(f.net.broker(b).tables().has_pending_shadows()) << b;
  }
  (void)txn;
}

TEST(Timeout, PrepareRetryIsIdempotentUnderDelayedAck) {
  // The ack is slow; the source retransmits the state message. Duplicates
  // must be harmless.
  TimeoutFixture f(with_timeouts(0.0, 0.2));
  // Slow the target so the ack comes back after a retry fired.
  f.net.events().schedule_at(0.025, [&f] { f.net.pause_broker(5, 0.5); });
  TxnId txn = kNoTxn;
  f.net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  f.net.run();
  EXPECT_EQ(f.net.engine(2).source_state(txn), SourceCoordState::Commit);
  ASSERT_NE(f.net.engine(5).find_client(kMover), nullptr);
  EXPECT_EQ(f.net.engine(5).find_client(kMover)->state(), ClientState::Started);
  // Exactly-once delivery still holds after the duplicate state/ack round.
  const Publication p = make_publication({kPublisher, 7}, 100, 0);
  f.net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  f.net.run();
  int n = 0;
  for (const auto& [c, id] : f.deliveries) {
    if (c == kMover && id == p.id()) ++n;
  }
  EXPECT_EQ(n, 1);
}

}  // namespace
}  // namespace tmps
