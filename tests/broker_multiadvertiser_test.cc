// Routing with multiple advertisers in different directions of the overlay:
// subscription fan-out, per-direction delivery, stale-entry tolerance after
// unadvertisement, and re-advertisement pulling subscriptions back.
#include <gtest/gtest.h>

#include "broker/broker.h"
#include "pubsub/workload.h"
#include "test_util.h"

namespace tmps {
namespace {

using testing::SyncNet;

Subscription sub(ClientId c, Filter f) { return {{c, 1}, std::move(f)}; }
Advertisement adv(ClientId c, Filter f) { return {{c, 1}, std::move(f)}; }

BrokerConfig plain_routing() {
  // Covering off: these tests pin down the pure advertisement-based routing
  // semantics; covering interactions are tested in covering_test.cc and
  // covering_soak_test.cc.
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  return bc;
}

class MultiAdvertiser : public ::testing::Test {
 protected:
  // Star with centre 1 and leaves 2..5.
  MultiAdvertiser() : overlay_(Overlay::star(5)), net_(overlay_, plain_routing()) {
    for (BrokerId b = 1; b <= 5; ++b) {
      net_.broker(b).set_notify_sink(
          [this, b](ClientId c, const Publication& p) {
            deliveries_.push_back({b, c, p.id()});
          });
    }
  }
  struct Delivery {
    BrokerId broker;
    ClientId client;
    PublicationId pub;
  };
  int count(ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& d : deliveries_) {
      if (d.client == c && d.pub == id) ++n;
    }
    return n;
  }

  Overlay overlay_;
  SyncNet net_;
  std::vector<Delivery> deliveries_;
};

TEST_F(MultiAdvertiser, SubscriptionFansTowardsEveryAdvertiser) {
  // Advertisers at leaves 2 and 3; subscriber at leaf 4.
  net_.run(2, [&](Broker& b) {
    return b.client_advertise(102, adv(102, full_space_advertisement()));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_advertise(103, adv(103, full_space_advertisement()));
  });
  net_.run(4, [&](Broker& b) {
    return b.client_subscribe(204,
                              sub(204, workload_filter(WorkloadKind::Covered,
                                                       1)));
  });
  // The subscription sits at 4, at the hub (lasthop 4), and at both
  // advertiser leaves.
  EXPECT_NE(net_.broker(2).tables().prt().find({204, 1}), nullptr);
  EXPECT_NE(net_.broker(3).tables().prt().find({204, 1}), nullptr);
  EXPECT_EQ(net_.broker(5).tables().prt().find({204, 1}), nullptr)
      << "no advertiser beyond leaf 5";

  // Publications from both advertisers arrive exactly once each.
  net_.run(2, [&](Broker& b) {
    return b.client_publish(102, make_publication({102, 2}, 100, 0));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_publish(103, make_publication({103, 2}, 200, 0));
  });
  EXPECT_EQ(count(204, {102, 2}), 1);
  EXPECT_EQ(count(204, {103, 2}), 1);
}

TEST_F(MultiAdvertiser, UnadvertiseLeavesOtherDirectionWorking) {
  net_.run(2, [&](Broker& b) {
    return b.client_advertise(102, adv(102, full_space_advertisement()));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_advertise(103, adv(103, full_space_advertisement()));
  });
  net_.run(4, [&](Broker& b) {
    return b.client_subscribe(204,
                              sub(204, workload_filter(WorkloadKind::Covered,
                                                       1)));
  });
  net_.run(2, [&](Broker& b) { return b.client_unadvertise(102, {102, 1}); });
  // Advertiser 3 still delivers.
  net_.run(3, [&](Broker& b) {
    return b.client_publish(103, make_publication({103, 9}, 100, 0));
  });
  EXPECT_EQ(count(204, {103, 9}), 1);
}

TEST_F(MultiAdvertiser, ReadvertiseAfterUnadvertisePullsSubscriptionAgain) {
  net_.run(2, [&](Broker& b) {
    return b.client_advertise(102, adv(102, full_space_advertisement()));
  });
  net_.run(4, [&](Broker& b) {
    return b.client_subscribe(204,
                              sub(204, workload_filter(WorkloadKind::Covered,
                                                       1)));
  });
  net_.run(2, [&](Broker& b) { return b.client_unadvertise(102, {102, 1}); });
  // A new advertisement (fresh id) from leaf 5 pulls the subscription there.
  net_.run(5, [&](Broker& b) {
    return b.client_advertise(105, adv(105, full_space_advertisement()));
  });
  EXPECT_NE(net_.broker(5).tables().prt().find({204, 1}), nullptr);
  net_.run(5, [&](Broker& b) {
    return b.client_publish(105, make_publication({105, 1}, 100, 0));
  });
  EXPECT_EQ(count(204, {105, 1}), 1);
}

TEST_F(MultiAdvertiser, PartialSpaceAdvertisersSplitTheSubscription) {
  // Advertiser 2 covers x in [0,4000], advertiser 3 covers [6000,10000];
  // a subscriber to [0,10000] reaches both, a subscriber to [0,1000] only 2.
  Filter low = Filter::build()
                   .attr("class").eq("STOCK")
                   .attr("g").ge(0).le(10)
                   .attr("x").ge(0).le(4000);
  Filter high = Filter::build()
                    .attr("class").eq("STOCK")
                    .attr("g").ge(0).le(10)
                    .attr("x").ge(6000).le(10000);
  net_.run(2, [&](Broker& b) { return b.client_advertise(102, adv(102, low)); });
  net_.run(3, [&](Broker& b) {
    return b.client_advertise(103, adv(103, high));
  });

  net_.run(4, [&](Broker& b) {
    return b.client_subscribe(204,
                              sub(204, workload_filter(WorkloadKind::Covered,
                                                       1)));  // full space
  });
  Filter narrow = Filter::build()
                      .attr("class").eq("STOCK")
                      .attr("g").eq(0)
                      .attr("x").ge(0).le(1000);
  net_.run(5, [&](Broker& b) {
    return b.client_subscribe(205, sub(205, narrow));
  });

  EXPECT_NE(net_.broker(2).tables().prt().find({204, 1}), nullptr);
  EXPECT_NE(net_.broker(3).tables().prt().find({204, 1}), nullptr);
  EXPECT_NE(net_.broker(2).tables().prt().find({205, 1}), nullptr);
  EXPECT_EQ(net_.broker(3).tables().prt().find({205, 1}), nullptr)
      << "narrow subscription must not reach the non-overlapping advertiser";
}

TEST_F(MultiAdvertiser, AdvertiserAndSubscriberSwapRolesCleanly) {
  // One client both advertises and subscribes; another at a different leaf
  // does the same; both receive each other's publications but not their own.
  const Filter space = full_space_advertisement();
  const Filter all = workload_filter(WorkloadKind::Covered, 1);
  net_.run(2, [&](Broker& b) {
    auto out = b.client_advertise(102, adv(102, space));
    for (auto& o : b.client_subscribe(102, sub(102, all))) {
      out.push_back(std::move(o));
    }
    return out;
  });
  net_.run(3, [&](Broker& b) {
    auto out = b.client_advertise(103, adv(103, space));
    for (auto& o : b.client_subscribe(103, sub(103, all))) {
      out.push_back(std::move(o));
    }
    return out;
  });
  net_.run(2, [&](Broker& b) {
    return b.client_publish(102, make_publication({102, 5}, 100, 0));
  });
  net_.run(3, [&](Broker& b) {
    return b.client_publish(103, make_publication({103, 5}, 100, 0));
  });
  EXPECT_EQ(count(103, {102, 5}), 1);
  EXPECT_EQ(count(102, {103, 5}), 1);
  EXPECT_EQ(count(102, {102, 5}), 0) << "no self-delivery (same origin hop)";
  EXPECT_EQ(count(103, {103, 5}), 0);
}

}  // namespace
}  // namespace tmps
