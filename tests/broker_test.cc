#include "broker/broker.h"

#include <gtest/gtest.h>

#include "pubsub/workload.h"
#include "test_util.h"

namespace tmps {
namespace {

using testing::SyncNet;

Subscription sub(ClientId c, std::uint32_t seq, Filter f) {
  return {{c, seq}, std::move(f)};
}
Advertisement adv(ClientId c, std::uint32_t seq, Filter f) {
  return {{c, seq}, std::move(f)};
}
Filter range(std::int64_t lo, std::int64_t hi) {
  return Filter::build().attr("class").eq("STOCK").attr("x").ge(lo).le(hi);
}

class BrokerChain : public ::testing::Test {
 protected:
  BrokerChain() : overlay_(Overlay::chain(5)), net_(overlay_) {}
  Overlay overlay_;
  SyncNet net_;
};

TEST_F(BrokerChain, AdvertisementFloodsEverywhere) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().srt().size(), 1u) << b;
  }
  // One message per link: 4 links.
  EXPECT_EQ(net_.messages(), 4u);
  // Last hops point back towards broker 1.
  EXPECT_EQ(net_.broker(3).tables().srt().begin()->second.lasthop,
            Hop::of_broker(2));
}

TEST_F(BrokerChain, SubscriptionRoutesTowardAdvertiser) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.reset_count();
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  // Subscription travels only along the path 5->4->3->2->1.
  EXPECT_EQ(net_.messages(), 4u);
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().prt().size(), 1u) << b;
  }
  EXPECT_EQ(net_.broker(3).tables().prt().begin()->second.lasthop,
            Hop::of_broker(4));
}

TEST_F(BrokerChain, NonIntersectingSubscriptionStaysLocal) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.reset_count();
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(500, 600)));
  });
  EXPECT_EQ(net_.messages(), 0u);
  EXPECT_EQ(net_.broker(5).tables().prt().size(), 1u);
  EXPECT_EQ(net_.broker(4).tables().prt().size(), 0u);
}

TEST_F(BrokerChain, PublicationDeliveredToMatchingSubscriber) {
  std::vector<std::pair<ClientId, Publication>> delivered;
  net_.broker(5).set_notify_sink(
      [&](ClientId c, const Publication& p) { delivered.emplace_back(c, p); });

  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  net_.run(1, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 2}, 15, 0));
  });
  // Group attribute mismatch: our range() filter has no g predicate, so it
  // matches publications regardless of g.
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 200u);

  net_.run(1, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 3}, 55, 0));
  });
  EXPECT_EQ(delivered.size(), 1u) << "non-matching publication delivered";
}

TEST_F(BrokerChain, PublicationFollowsSubscriptionPathOnly) {
  net_.run(3, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net_.reset_count();
  net_.run(3, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 2}, 50, 0));
  });
  // Publication flows 3->4->5 only, not towards 2/1.
  EXPECT_EQ(net_.messages(), 2u);
  EXPECT_EQ(net_.on_link(3, 4), 1u);
  EXPECT_EQ(net_.on_link(4, 5), 1u);
  EXPECT_EQ(net_.on_link(3, 2), 0u);
}

TEST_F(BrokerChain, UnsubscribeCleansPath) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_unsubscribe(200, {200, 1});
  });
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().prt().size(), 0u) << b;
  }
}

TEST_F(BrokerChain, UnadvertiseCleansSrt) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(1, [&](Broker& b) {
    return b.client_unadvertise(100, {100, 1});
  });
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().srt().size(), 0u) << b;
  }
}

TEST_F(BrokerChain, StaleUnsubscribeIgnored) {
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  // Unsubscribe with a wrong last hop (different client) is dropped.
  net_.run(5, [&](Broker& b) {
    return b.client_unsubscribe(999, {200, 1});
  });
  EXPECT_EQ(net_.broker(5).tables().prt().size(), 1u);
}

TEST_F(BrokerChain, LateAdvertiserPullsExistingSubscriptions) {
  // Subscription issued before any advertisement stays local...
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  EXPECT_EQ(net_.broker(4).tables().prt().size(), 0u);
  // ...then an advertisement appears and drags the subscription to it.
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_EQ(net_.broker(b).tables().prt().size(), 1u) << b;
  }

  std::vector<Publication> got;
  net_.broker(5).set_notify_sink(
      [&](ClientId, const Publication& p) { got.push_back(p); });
  net_.run(1, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 9}, 12, 0));
  });
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(BrokerChain, TwoSubscribersBothReceive) {
  std::vector<ClientId> got;
  net_.broker(1).set_notify_sink(
      [&](ClientId c, const Publication&) { got.push_back(c); });
  net_.broker(5).set_notify_sink(
      [&](ClientId c, const Publication&) { got.push_back(c); });

  net_.run(3, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(1, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(0, 50)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(202, sub(202, 1, range(0, 50)));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 2}, 25, 0));
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0], got[1]);
}

TEST_F(BrokerChain, SelfDeliveryToLocalSubscriber) {
  std::vector<ClientId> got;
  net_.broker(3).set_notify_sink(
      [&](ClientId c, const Publication&) { got.push_back(c); });
  net_.run(3, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 100)));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 2}, 10, 0));
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 200u);
}

// --- covering behaviour -------------------------------------------------------

class BrokerCovering : public ::testing::Test {
 protected:
  BrokerCovering() : overlay_(Overlay::chain(5)), net_(overlay_) {
    // Advertiser at broker 1 so subscriptions from broker 5 travel the chain.
    net_.run(1, [&](Broker& b) {
      return b.client_advertise(100, adv(100, 1, range(0, 1000)));
    });
    net_.reset_count();
  }
  Overlay overlay_;
  SyncNet net_;
};

TEST_F(BrokerCovering, CoveredSubscriptionQuenched) {
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  EXPECT_EQ(net_.messages(), 4u);
  net_.reset_count();
  // A narrower subscription from the same broker is quenched immediately.
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(10, 20)));
  });
  EXPECT_EQ(net_.messages(), 0u);
  EXPECT_EQ(net_.broker(4).tables().prt().size(), 1u);
}

TEST_F(BrokerCovering, IdenticalSubscriptionQuenched) {
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net_.reset_count();
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(0, 100)));
  });
  EXPECT_EQ(net_.messages(), 0u);
}

TEST_F(BrokerCovering, CoveringSubscriptionRetractsCovered) {
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(10, 20)));
  });
  net_.reset_count();
  // A wider subscription triggers forwarding plus retraction of the covered
  // one on every link it was active on (the paper's pathological pattern).
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(0, 100)));
  });
  // Per hop: subscribe(201) + unsubscribe(200) = 2 messages over 4 links.
  EXPECT_EQ(net_.messages(), 8u);
  EXPECT_EQ(net_.broker(2).tables().prt().size(), 1u);
  EXPECT_EQ(net_.broker(5).tables().prt().size(), 2u);  // origin keeps both
}

TEST_F(BrokerCovering, UnsubscribeOfCovererUnquenchesCovered) {
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(10, 20)));
  });
  net_.reset_count();
  // Removing the coverer must re-propagate the covered subscription
  // (subscribe 201 + unsubscribe 200 per link).
  net_.run(5, [&](Broker& b) {
    return b.client_unsubscribe(200, {200, 1});
  });
  EXPECT_EQ(net_.messages(), 8u);
  for (BrokerId b = 1; b <= 4; ++b) {
    ASSERT_EQ(net_.broker(b).tables().prt().size(), 1u) << b;
    EXPECT_EQ(net_.broker(b).tables().prt().begin()->first,
              (SubscriptionId{201, 1}));
  }
}

TEST_F(BrokerCovering, DeliveryStillWorksWhileQuenched) {
  std::vector<ClientId> got;
  net_.broker(5).set_notify_sink(
      [&](ClientId c, const Publication&) { got.push_back(c); });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(10, 20)));
  });
  net_.run(1, [&](Broker& b) {
    return b.client_publish(100, make_publication({100, 2}, 15, 0));
  });
  // Both the coverer and the quenched subscription receive the publication.
  ASSERT_EQ(got.size(), 2u);
}

TEST_F(BrokerCovering, CoveringDisabledForwardsEverything) {
  Overlay o = Overlay::chain(3);
  BrokerConfig cfg;
  cfg.subscription_covering = false;
  cfg.advertisement_covering = false;
  SyncNet net(o, cfg);
  net.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(0, 1000)));
  });
  net.reset_count();
  net.run(3, [&](Broker& b) {
    return b.client_subscribe(200, sub(200, 1, range(0, 100)));
  });
  net.run(3, [&](Broker& b) {
    return b.client_subscribe(201, sub(201, 1, range(10, 20)));
  });
  // Both subscriptions propagate: 2 hops each.
  EXPECT_EQ(net.messages(), 4u);
}

TEST_F(BrokerCovering, AdvertisementCoveringQuenchesAndRetracts) {
  // adv(0..1000) from broker 1 already flooded in the fixture.
  // A covered advertisement from broker 1 is quenched.
  net_.run(1, [&](Broker& b) {
    return b.client_advertise(101, adv(101, 1, range(0, 10)));
  });
  EXPECT_EQ(net_.messages(), 0u);
  EXPECT_EQ(net_.broker(3).tables().srt().size(), 1u);

  // A covering advertisement retracts the earlier one network-wide: the
  // "both flooded, then one unadvertised" pattern from Sec. 4.4.
  Overlay o = Overlay::chain(3);
  SyncNet net(o);
  net.run(1, [&](Broker& b) {
    return b.client_advertise(100, adv(100, 1, range(50, 60)));
  });
  net.reset_count();
  net.run(1, [&](Broker& b) {
    Filter wide = Filter::build().attr("class").eq("STOCK").attr("x").ge(0).le(
        1000);
    return b.client_advertise(101, adv(101, 1, wide));
  });
  // Per link: advertise(101) + unadvertise(100) = 2 over 2 links.
  EXPECT_EQ(net.messages(), 4u);
  EXPECT_EQ(net.broker(3).tables().srt().size(), 1u);
}

}  // namespace
}  // namespace tmps
