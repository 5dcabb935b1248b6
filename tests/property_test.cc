// Randomized property tests over random overlays, workloads and movement
// schedules (parameterized on the RNG seed).
//
// Invariants checked after every run (reconfiguration protocol):
//  * exactly-once: every publication reaches every client whose subscription
//    matches it exactly once — no loss, no duplicates — regardless of the
//    interleaving of movements and publications (Sec. 3.4 atomicity +
//    consistency);
//  * single instance: each client ends as exactly one started copy
//    (Sec. 3.3 atomicity + consistency);
//  * no shadow routing state survives transaction resolution (Sec. 3.5
//    atomicity);
//  * routing isolation: stationary clients' tables entries are untouched by
//    others' movements.
// For the traditional protocol only no-duplicates is asserted (the paper's
// point is precisely that it lacks the stronger guarantees).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "routing_reference.h"
#include "sim/network.h"

namespace tmps {
namespace {

BrokerConfig broker_config_for(MobilityProtocol proto) {
  // Covering quenching is only sound under the covering (traditional)
  // protocol: a subscription quenched by another loses its delivery path
  // when the coverer moves away via hop-by-hop reconfiguration.
  BrokerConfig bc;
  bc.subscription_covering = proto == MobilityProtocol::Traditional;
  bc.advertisement_covering = proto == MobilityProtocol::Traditional;
  return bc;
}

struct World {
  explicit World(std::uint64_t seed, MobilityProtocol proto)
      : rng(seed),
        overlay(Overlay::random_tree(
            8 + static_cast<std::uint32_t>(seed % 9), seed ^ 0xABCD)),
        net(overlay, broker_config_for(proto)) {
    MobilityConfig cfg;
    cfg.protocol = proto;
    for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
      engines.push_back(
          std::make_unique<MobilityEngine>(net.broker(b), net, cfg));
      engines.back()->set_transmit([this, b](Broker::Outputs out) {
        net.transmit(b, std::move(out));
      });
      engines.back()->set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            ++delivered[{c, p.id()}];
          });
    }
  }

  BrokerId random_broker() {
    std::uniform_int_distribution<BrokerId> d(1, overlay.broker_count());
    return d(rng);
  }

  MobilityEngine* engine_hosting(ClientId c) {
    for (auto& e : engines) {
      if (e->find_client(c)) return e.get();
    }
    return nullptr;
  }

  std::mt19937_64 rng;
  Overlay overlay;
  SimNetwork net;
  std::vector<std::unique_ptr<MobilityEngine>> engines;
  std::map<std::pair<ClientId, PublicationId>, int> delivered;
  std::map<ClientId, Filter> filters;
  std::vector<Publication> pubs;
};

/// Populates a world and runs a random schedule of interleaved movements
/// and publications, leaving it quiesced.
void run_schedule(World& w) {

  // Publishers at 2-3 random brokers.
  std::uniform_int_distribution<int> npubs(2, 3);
  const int publishers = npubs(w.rng);
  for (int p = 0; p < publishers; ++p) {
    const BrokerId b = w.random_broker();
    const ClientId id = 1 + p;
    Broker::Outputs out;
    w.engines[b - 1]->connect_client(id);
    w.engines[b - 1]->advertise(id, full_space_advertisement(), out);
    w.net.transmit(b, std::move(out));
  }
  w.net.run();

  // 20-40 subscribers with random workload filters at random brokers.
  std::uniform_int_distribution<int> nsubs(20, 40);
  std::uniform_int_distribution<int> member(1, 10);
  std::uniform_int_distribution<int> kind(0, 3);
  constexpr WorkloadKind kinds[] = {WorkloadKind::Covered,
                                    WorkloadKind::Chained, WorkloadKind::Tree,
                                    WorkloadKind::Distinct};
  const int subscribers = nsubs(w.rng);
  for (int s = 0; s < subscribers; ++s) {
    const ClientId id = 1000 + s;
    const BrokerId b = w.random_broker();
    const Filter f =
        workload_filter(kinds[kind(w.rng)], member(w.rng), s / 10);
    w.filters[id] = f;
    Broker::Outputs out;
    w.engines[b - 1]->connect_client(id);
    w.engines[b - 1]->subscribe(id, f, out);
    w.net.transmit(b, std::move(out));
  }
  w.net.run();

  // Random schedule: 60 steps of move-or-publish at random times.
  std::uniform_real_distribution<double> when(0.0, 20.0);
  std::uniform_int_distribution<int> coin(0, 2);
  std::uniform_int_distribution<std::int64_t> x(kSpaceLo, kSpaceHi);
  std::uniform_int_distribution<std::int64_t> g(0, subscribers / 10);
  std::uint32_t pub_seq = 0;
  for (int step = 0; step < 60; ++step) {
    const double t = when(w.rng);
    if (coin(w.rng) == 0) {
      // Publish from a random publisher.
      const ClientId pid = 1 + static_cast<ClientId>(
                                   w.rng() % static_cast<unsigned>(publishers));
      Publication pub = make_publication({pid, ++pub_seq}, x(w.rng), g(w.rng));
      w.pubs.push_back(pub);
      w.net.events().schedule_at(t, [&w, pid, pub] {
        MobilityEngine* e = w.engine_hosting(pid);
        if (!e) return;
        Broker::Outputs out;
        e->publish(pid, Publication(pub), out);
        w.net.transmit(e->broker_id(), std::move(out));
      });
    } else {
      // Move a random subscriber to a random broker.
      const ClientId cid =
          1000 + static_cast<ClientId>(
                     w.rng() % static_cast<unsigned>(subscribers));
      const BrokerId to = w.random_broker();
      w.net.events().schedule_at(t, [&w, cid, to] {
        MobilityEngine* e = w.engine_hosting(cid);
        if (!e || e->broker_id() == to) return;
        Broker::Outputs out;
        e->initiate_move(cid, to, out);
        w.net.transmit(e->broker_id(), std::move(out));
      });
    }
  }
  w.net.run();
}

class ReconfigProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfigProperty, ExactlyOnceDeliveryAndSingleInstance) {
  World w(GetParam(), MobilityProtocol::Reconfiguration);
  run_schedule(w);

  // Exactly-once delivery to every matching subscriber.
  for (const auto& pub : w.pubs) {
    for (const auto& [cid, filter] : w.filters) {
      const int n = [&] {
        auto it = w.delivered.find({cid, pub.id()});
        return it == w.delivered.end() ? 0 : it->second;
      }();
      if (filter.matches(pub)) {
        EXPECT_EQ(n, 1) << "client " << cid << " pub " << to_string(pub.id());
      } else {
        EXPECT_EQ(n, 0) << "client " << cid << " pub " << to_string(pub.id());
      }
    }
  }

  // Exactly one started instance of every client.
  for (const auto& [cid, filter] : w.filters) {
    int copies = 0;
    for (auto& e : w.engines) {
      const ClientStub* stub = e->find_client(cid);
      if (stub) {
        ++copies;
        EXPECT_EQ(stub->state(), ClientState::Started) << cid;
      }
    }
    EXPECT_EQ(copies, 1) << cid;
  }

  // No shadow state survives.
  for (BrokerId b = 1; b <= w.overlay.broker_count(); ++b) {
    EXPECT_FALSE(w.net.broker(b).tables().has_pending_shadows()) << b;
  }

  // Routing consistency (Sec. 3.5): every (publisher, subscription) pair
  // has an intact delivery path wherever the clients ended up.
  RoutingAuditor auditor(w.overlay,
                         [&](BrokerId b) -> const RoutingTables& {
                           return w.net.broker(b).tables();
                         });
  for (const auto& [cid, filter] : w.filters) {
    MobilityEngine* host = w.engine_hosting(cid);
    ASSERT_NE(host, nullptr) << cid;
    const ClientStub* stub = host->find_client(cid);
    for (const auto& s : stub->subscriptions()) {
      auditor.expect_subscriber(s.id, s.filter, host->broker_id());
    }
  }
  for (ClientId pid = 1; pid <= 3; ++pid) {
    MobilityEngine* host = w.engine_hosting(pid);
    if (!host) continue;
    for (const auto& a : host->find_client(pid)->advertisements()) {
      auditor.expect_publisher(a.id, a.filter, host->broker_id());
    }
  }
  const auto violations = auditor.audit();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations[0].to_string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

class TraditionalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraditionalProperty, NoDuplicatesAndSingleInstance) {
  World w(GetParam(), MobilityProtocol::Traditional);
  run_schedule(w);

  for (const auto& [key, n] : w.delivered) {
    EXPECT_LE(n, 1) << "client " << key.first << " pub "
                    << to_string(key.second);
  }
  for (const auto& [cid, filter] : w.filters) {
    int copies = 0;
    for (auto& e : w.engines) {
      if (e->find_client(cid)) ++copies;
    }
    EXPECT_EQ(copies, 1) << cid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraditionalProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Routing isolation (Sec. 3.5): a movement only updates routing entries of
/// the moving client; other clients' entries are bit-identical before and
/// after.
TEST(RoutingIsolation, OtherClientsEntriesUntouchedByMove) {
  World w(42, MobilityProtocol::Reconfiguration);
  // One publisher, two subscribers; one of them moves.
  Broker::Outputs out;
  w.engines[0]->connect_client(1);
  w.engines[0]->advertise(1, full_space_advertisement(), out);
  w.net.transmit(1, std::move(out));
  w.net.run();

  const BrokerId b_stationary = w.overlay.broker_count();
  Broker::Outputs o2;
  w.engines[b_stationary - 1]->connect_client(1000);
  w.engines[b_stationary - 1]->subscribe(
      1000, workload_filter(WorkloadKind::Covered, 1, 0), o2);
  w.net.transmit(b_stationary, std::move(o2));
  Broker::Outputs o3;
  w.engines[1]->connect_client(1001);
  w.engines[1]->subscribe(1001, workload_filter(WorkloadKind::Covered, 1, 1),
                          o3);
  w.net.transmit(2, std::move(o3));
  w.net.run();

  // Snapshot stationary client's entries at every broker.
  auto snapshot = [&] {
    std::map<BrokerId, std::pair<Hop, std::set<Hop>>> snap;
    for (BrokerId b = 1; b <= w.overlay.broker_count(); ++b) {
      const SubEntry* e = w.net.broker(b).tables().prt().find({1000, 1});
      if (e) {
        snap[b] = {e->lasthop,
                   std::set<Hop>(e->forwarded_to.begin(),
                                 e->forwarded_to.end())};
      }
    }
    return snap;
  };
  const auto before = snapshot();

  // Move client 1001 somewhere else.
  Broker::Outputs o4;
  w.engines[1]->initiate_move(1001, w.overlay.broker_count() > 2 ? 3 : 1, o4);
  w.net.transmit(2, std::move(o4));
  w.net.run();

  EXPECT_EQ(snapshot(), before);
}

}  // namespace
}  // namespace tmps
