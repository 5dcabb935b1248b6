// Regression tests documenting the covering/reconfiguration interaction
// found while building this system (see DESIGN.md):
//
//   With the covering optimization enabled, a subscription quenched by a
//   covering subscription depends on the coverer's routing entries for its
//   own deliveries. If the coverer then moves via the hop-by-hop
//   reconfiguration protocol, its entries flip towards its new location and
//   the quenched subscription silently loses its delivery path — violating
//   the notification-consistency property of Sec. 3.4.
//
// The paper frames covering as the *traditional* protocol's optimization;
// these tests pin down (a) that the hazard is real with covering on, and
// (b) that disabling covering restores the guarantee — the configuration
// every reconfiguration deployment in this repository uses.
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kPublisher = 1;
constexpr ClientId kCoverer = 10;   // holds the covering root, moves
constexpr ClientId kQuenched = 11;  // holds a covered leaf, stationary

struct Rig {
  explicit Rig(bool covering_enabled)
      : overlay(Overlay::chain(5)),
        net(overlay,
            [&] {
              BrokerConfig bc;
              bc.subscription_covering = covering_enabled;
              bc.advertisement_covering = covering_enabled;
              return bc;
            }()) {
    for (BrokerId b = 1; b <= 5; ++b) {
      engines.push_back(std::make_unique<MobilityEngine>(net.broker(b), net));
      engines.back()->set_transmit([this, b](Broker::Outputs out) {
        net.transmit(b, std::move(out));
      });
      engines.back()->set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            deliveries.emplace_back(c, p.id());
          });
    }
    // Publisher at broker 5; both subscribers co-located at broker 1.
    run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kCoverer);
      e.subscribe(kCoverer, workload_filter(WorkloadKind::Covered, 1), out);
    });
    run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kQuenched);
      e.subscribe(kQuenched, workload_filter(WorkloadKind::Covered, 2), out);
    });
  }

  void run_op(BrokerId b, const std::function<void(MobilityEngine&,
                                                   Broker::Outputs&)>& op) {
    Broker::Outputs out;
    op(*engines[b - 1], out);
    net.transmit(b, std::move(out));
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
  std::vector<std::unique_ptr<MobilityEngine>> engines;
  std::vector<std::pair<ClientId, PublicationId>> deliveries;
};

TEST(CoveringMobility, QuenchingActuallyHappensWithCoveringOn) {
  Rig s(/*covering_enabled=*/true);
  // The leaf's subscription was quenched at broker 1: brokers 2..4 only
  // carry the root.
  EXPECT_EQ(s.net.broker(3).tables().prt().find({kQuenched, 1}), nullptr);
  ASSERT_NE(s.net.broker(3).tables().prt().find({kCoverer, 1}), nullptr);
  // Delivery works for both while the coverer is in place.
  const Publication p = make_publication({kPublisher, 1}, 100, 0);
  s.run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  EXPECT_EQ(s.delivered(kCoverer, p.id()), 1);
  EXPECT_EQ(s.delivered(kQuenched, p.id()), 1);
}

TEST(CoveringMobility, HazardQuenchedSubscriberLosesDeliveryWhenCovererMoves) {
  Rig s(/*covering_enabled=*/true);
  s.run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kCoverer, 5, out);
  });
  const Publication p = make_publication({kPublisher, 2}, 100, 0);
  s.run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  // The mover still receives (now locally at broker 5)...
  EXPECT_EQ(s.delivered(kCoverer, p.id()), 1);
  // ...but the quenched subscriber's path is gone: THIS IS THE HAZARD.
  // If this expectation ever starts failing, the engine has gained an
  // un-quench step and DESIGN.md's guidance should be revisited.
  EXPECT_EQ(s.delivered(kQuenched, p.id()), 0)
      << "hazard no longer reproduces; covering+reconfig guidance stale";
}

TEST(CoveringMobility, CoveringOffRestoresGuarantee) {
  Rig s(/*covering_enabled=*/false);
  s.run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kCoverer, 5, out);
  });
  const Publication p = make_publication({kPublisher, 2}, 100, 0);
  s.run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  EXPECT_EQ(s.delivered(kCoverer, p.id()), 1);
  EXPECT_EQ(s.delivered(kQuenched, p.id()), 1);
}

TEST(CoveringMobility, TraditionalProtocolUnquenchesCorrectly) {
  // The traditional protocol's unsubscription un-quenches the leaf, so the
  // guarantee survives a coverer move under covering — at the message cost
  // the paper measures.
  Rig s(/*covering_enabled=*/true);
  for (auto& e : s.engines) {
    // switch every engine to the traditional protocol for this test
    e->mutable_config().protocol = MobilityProtocol::Traditional;
  }
  s.run_op(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kCoverer, 5, out);
  });
  const Publication p = make_publication({kPublisher, 2}, 100, 0);
  s.run_op(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  EXPECT_EQ(s.delivered(kCoverer, p.id()), 1);
  EXPECT_EQ(s.delivered(kQuenched, p.id()), 1);
}

}  // namespace
}  // namespace tmps
