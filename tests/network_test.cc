// Tests of the queueing-network simulator: delays, FIFO links, congestion,
// the cause ledger, failure injection.
#include <gtest/gtest.h>

#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

Message unicast(Broker& from, BrokerId dest) {
  Message m;
  m.id = from.next_message_id();
  m.unicast_dest = dest;
  m.payload = MoveAckMsg{};  // any pure-unicast control payload
  return m;
}

TEST(SimNetwork, DeliveryTakesLinkDelayAndProcessing) {
  Overlay o = Overlay::chain(2);
  SimNetwork net(o);
  // Relay brokers forward unicasts without a control handler; send 1 -> 2.
  net.transmit(1, {{2, unicast(net.broker(1), 2)}});
  net.run();
  // service + delay + processing.
  const auto& p = NetworkProfile::lan();
  EXPECT_NEAR(net.now(), p.link_service + p.link_delay + p.control_proc, 1e-9);
  EXPECT_EQ(net.stats().total_messages(), 1u);
}

TEST(SimNetwork, MultiHopForwarding) {
  Overlay o = Overlay::chain(4);
  SimNetwork net(o);
  net.transmit(1, {{2, unicast(net.broker(1), 4)}});
  net.run();
  // Forwarded hop-by-hop: 3 link transmissions counted.
  EXPECT_EQ(net.stats().total_messages(), 3u);
  const auto& p = NetworkProfile::lan();
  EXPECT_NEAR(net.now(), 3 * (p.link_service + p.link_delay + p.control_proc),
              1e-9);
}

TEST(SimNetwork, LinkQueueingSerializesBursts) {
  Overlay o = Overlay::chain(2);
  NetworkProfile p;
  p.link_service = 0.01;  // slow link to expose queueing
  SimNetwork net(o, {}, p);
  Broker::Outputs burst;
  for (int i = 0; i < 10; ++i) burst.push_back({2, unicast(net.broker(1), 2)});
  net.transmit(1, std::move(burst));
  net.run();
  // The last message waits behind nine service times.
  EXPECT_GE(net.now(), 10 * p.link_service + p.link_delay);
}

TEST(SimNetwork, BrokerProcessingQueues) {
  Overlay o = Overlay::star(3);
  NetworkProfile p;
  p.control_proc = 0.01;
  SimNetwork net(o, {}, p);
  // Two messages arrive at broker 1 from different links at the same time;
  // processing is serialized.
  net.transmit(2, {{1, unicast(net.broker(2), 1)}});
  net.transmit(3, {{1, unicast(net.broker(3), 1)}});
  net.run();
  EXPECT_GE(net.now(), p.link_service + p.link_delay + 2 * p.control_proc);
}

// The cause ledger (sim/host_core.h), exercised through the simulator.

TEST(SimNetwork, CauseTrackingDrains) {
  // A watcher fires once, when the last message of the causal chain
  // retires: B2 relays the message before retiring its own copy, so the
  // cause stays open until B3 has processed the second hop.
  Overlay o = Overlay::chain(3);
  SimNetwork net(o);
  Message m = unicast(net.broker(1), 3);
  m.cause = 42;
  int fired = 0;
  double fired_at = -1;
  net.transmit(1, {{2, m}});
  EXPECT_EQ(net.outstanding(42), 1u);
  net.on_cause_drained(42, [&] {
    ++fired;
    fired_at = net.now();
    EXPECT_EQ(net.outstanding(42), 0u);
  });
  EXPECT_EQ(fired, 0);
  net.run();
  EXPECT_EQ(fired, 1);
  const auto& p = NetworkProfile::lan();
  EXPECT_NEAR(fired_at, 2 * (p.link_service + p.link_delay + p.control_proc),
              1e-9);
  EXPECT_EQ(net.outstanding(42), 0u);
  EXPECT_TRUE(net.outstanding_causes().empty());
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, CauseDrainFiresImmediatelyWhenIdle) {
  Overlay o = Overlay::chain(2);
  SimNetwork net(o);
  bool fired = false;
  net.on_cause_drained(7, [&] { fired = true; });
  EXPECT_TRUE(fired);

  // A cause that has drained is idle again.
  Message m = unicast(net.broker(1), 2);
  m.cause = 7;
  net.transmit(1, {{2, m}});
  net.run();
  fired = false;
  net.on_cause_drained(7, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(SimNetwork, CauseWatchersFireInRegistrationOrder) {
  Overlay o = Overlay::chain(2);
  SimNetwork net(o);
  Message m = unicast(net.broker(1), 2);
  m.cause = 9;
  net.transmit(1, {{2, m}});
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    net.on_cause_drained(9, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(order.empty());
  net.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimNetwork, DroppedMessageNeverHoldsADrainOpen) {
  Overlay o = Overlay::chain(3);
  SimNetwork net(o);
  // Lose every message on the second hop: the relay's copy never arrives.
  net.set_fault_hook([](BrokerId from, BrokerId, const Message&) {
    FaultAction a;
    a.drop = from == 2;
    return a;
  });
  Message m = unicast(net.broker(1), 3);
  m.cause = 5;
  net.transmit(1, {{2, m}});
  bool drained = false;
  net.on_cause_drained(5, [&] { drained = true; });
  net.run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(net.outstanding(5), 0u);
  // The lost message still counts as traffic.
  EXPECT_EQ(net.stats().total_messages(), 2u);
  EXPECT_EQ(net.metrics()->counter("sim_messages_dropped_total").value(), 1u);

  // A message lost on its first hop leaves nothing in flight either.
  net.set_fault_hook([](BrokerId, BrokerId, const Message&) {
    FaultAction a;
    a.drop = true;
    return a;
  });
  Message first = unicast(net.broker(1), 2);
  first.cause = 6;
  net.transmit(1, {{2, first}});
  EXPECT_EQ(net.outstanding(6), 0u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, PausedBrokerDelaysButDelivers) {
  Overlay o = Overlay::chain(2);
  SimNetwork net(o);
  net.pause_broker(2, 5.0);  // crash masked as a long pause (Sec. 3.5)
  net.transmit(1, {{2, unicast(net.broker(1), 2)}});
  net.run();
  EXPECT_GE(net.now(), 5.0);
  EXPECT_EQ(net.stats().total_messages(), 1u);
}

TEST(SimNetwork, PausedLinkDelaysTransmission) {
  Overlay o = Overlay::chain(2);
  SimNetwork net(o);
  net.pause_link(1, 2, 3.0);
  net.transmit(1, {{2, unicast(net.broker(1), 2)}});
  net.run();
  EXPECT_GE(net.now(), 3.0);
}

TEST(SimNetwork, JitterNeverReordersALink) {
  Overlay o = Overlay::chain(2);
  NetworkProfile p = NetworkProfile::planetlab();
  p.seed = 9;
  SimNetwork net(o, {}, p);
  // Tag messages with increasing causes; record processing order via drain.
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    Message m = unicast(net.broker(1), 2);
    m.cause = 100 + i;
    net.transmit(1, {{2, m}});
    net.on_cause_drained(100 + i, [&order, i] { order.push_back(i); });
  }
  net.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimNetwork, PlanetlabLinksAreHeterogeneous) {
  Overlay o = Overlay::chain(5);
  NetworkProfile p = NetworkProfile::planetlab();
  p.delay_jitter = 0;  // isolate per-link base delays
  SimNetwork a(o, {}, p);
  // Measure per-hop times by sending a unicast across and reading now().
  a.transmit(1, {{2, unicast(a.broker(1), 2)}});
  a.run();
  const double hop1 = a.now();
  a.transmit(4, {{5, unicast(a.broker(4), 5)}});
  const double before = a.now();
  a.run();
  const double hop4 = a.now() - before;
  EXPECT_NE(hop1, hop4);
}

TEST(SimNetwork, StatsPerTypeAndLink) {
  Overlay o = Overlay::chain(3);
  SimNetwork net(o);
  Message m = unicast(net.broker(1), 3);
  net.transmit(1, {{2, m}});
  net.run();
  EXPECT_EQ(net.stats().messages_by_type("move-ack"), 2u);
  EXPECT_EQ(net.stats().link_counts().at({1, 2}), 1u);
  EXPECT_EQ(net.stats().link_counts().at({2, 3}), 1u);
}

TEST(Summary, Moments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

}  // namespace
}  // namespace tmps
