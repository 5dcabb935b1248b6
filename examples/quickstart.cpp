// Quickstart: a five-broker overlay, one publisher, one subscriber, and one
// transactional movement — the smallest end-to-end tour of the library.
//
//   build/examples/quickstart
#include <cstdio>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

using namespace tmps;

int main() {
  // 1. An acyclic broker overlay: 1-2-3-4-5.
  const Overlay overlay = Overlay::chain(5);
  SimNetwork net(overlay);

  // 2. Every broker carries a mobile container (coordinator + hosted
  //    clients); print what each one delivers.
  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    net.engine(b).set_delivery_sink(
        [](ClientId c, const Publication& p, SimTime t) {
          std::printf("  [t=%.3fs] client %llu <- %s\n", t,
                      static_cast<unsigned long long>(c),
                      p.to_string().c_str());
        });
  }

  // 3. A publisher at broker 1 advertises what it will publish.
  std::printf("publisher 100 advertises at broker 1\n");
  net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(100);
    e.advertise(100, Filter{eq("class", "STOCK"), ge("x", std::int64_t{0}),
                            le("x", std::int64_t{1000})},
                out);
  });
  net.run();

  // 4. A subscriber at broker 2 registers interest.
  std::printf("subscriber 200 subscribes at broker 2 to x in [0,500]\n");
  net.run_on(2, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(200);
    e.subscribe(200, Filter{eq("class", "STOCK"), ge("x", std::int64_t{0}),
                            le("x", std::int64_t{500})},
                out);
  });
  net.run();

  // 5. Publications route content-based to the subscriber.
  std::printf("publisher publishes x=42 (matches) and x=900 (does not)\n");
  net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    Publication p1({0, 0}, {{"class", "STOCK"}, {"x", std::int64_t{42}}});
    Publication p2({0, 0}, {{"class", "STOCK"}, {"x", std::int64_t{900}}});
    e.publish(100, std::move(p1), out);
    e.publish(100, std::move(p2), out);
  });
  net.run();

  // 6. Transactional movement: the subscriber relocates to broker 5. The
  //    reconfiguration protocol updates routing state hop-by-hop along the
  //    path 2-3-4-5; no notification is lost or duplicated.
  std::printf("subscriber 200 moves from broker 2 to broker 5...\n");
  TxnId txn = kNoTxn;
  net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(200, 5, out);
  });
  net.run();
  std::printf("movement transaction %llu: source coordinator is %s\n",
              static_cast<unsigned long long>(txn),
              to_string(*net.engine(2).source_state(txn)));

  // 7. Delivery continues at the new location, transparently.
  std::printf("publisher publishes x=123 after the move\n");
  net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    Publication p({0, 0}, {{"class", "STOCK"}, {"x", std::int64_t{123}}});
    e.publish(100, std::move(p), out);
  });
  net.run();

  std::printf("movements recorded: %zu (committed: %s, %.1f ms)\n",
              net.stats().movements().size(),
              net.stats().movements()[0].committed ? "yes" : "no",
              net.stats().movements()[0].duration() * 1e3);
  return 0;
}
