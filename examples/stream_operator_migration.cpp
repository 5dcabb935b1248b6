// Stream-operator migration (the paper's adaptive stream-processing
// motivation): a windowed-aggregate operator consumes sensor readings via a
// subscription and publishes per-window aggregates via an advertisement.
// Mid-stream it migrates to a broker closer to the sink — both its
// subscription and its advertisement move in one transaction — and the
// example verifies the aggregate stream is gapless and duplicate-free.
//
//   build/examples/stream_operator_migration
#include <cstdio>
#include <set>

#include "core/mobility_engine.h"
#include "sim/network.h"

using namespace tmps;

namespace {

constexpr ClientId kSensor = 1;    // at broker 6 (edge)
constexpr ClientId kOperator = 2;  // starts at broker 5, migrates to 12
constexpr ClientId kSink = 3;      // at broker 13 (data centre)
constexpr int kWindow = 10;        // readings per aggregate window

Filter readings_filter() {
  return Filter{eq("stream", "readings"), present("value"), present("seq")};
}
Filter aggregates_filter() {
  return Filter{eq("stream", "aggregates"), present("sum"), present("window")};
}

}  // namespace

int main() {
  const Overlay overlay = Overlay::paper_default();
  SimNetwork net(overlay);

  // Operator state: running sum of the current window. This is exactly the
  // state that must move with the client.
  struct OperatorState {
    std::int64_t sum = 0;
    int count = 0;
    int window = 0;
  } op_state;
  std::set<int> windows_received;
  int duplicate_windows = 0;

  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    net.engine(b).set_delivery_sink([&, b](ClientId c, const Publication& p,
                                           SimTime t) {
      if (c == kOperator) {
        // The operator folds each reading into its window aggregate and
        // emits when the window closes. Note: this runs wherever the
        // operator currently lives.
        op_state.sum += p.find("value")->as_int();
        if (++op_state.count == kWindow) {
          Publication agg({0, 0}, {{"stream", "aggregates"},
                                   {"sum", op_state.sum},
                                   {"window", std::int64_t{op_state.window}}});
          // Deliveries come from the broker hosting the operator.
          net.run_on(b, [&](MobilityEngine& e, Broker::Outputs& out) {
            e.publish(kOperator, std::move(agg), out);
          });
          op_state = {0, 0, op_state.window + 1};
        }
      } else if (c == kSink) {
        const int w = static_cast<int>(p.find("window")->as_int());
        if (!windows_received.insert(w).second) ++duplicate_windows;
        std::printf("  [t=%6.3fs] sink: window %2d sum=%lld\n", t, w,
                    static_cast<long long>(p.find("sum")->as_int()));
      }
    });
  }

  // Wire the dataflow: sensor -> operator -> sink.
  net.run_on(6, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kSensor);
    e.advertise(kSensor,
                Filter{eq("stream", "readings"),
                       ge("value", std::int64_t{0}),
                       le("value", std::int64_t{1000000}),
                       ge("seq", std::int64_t{0})},
                out);
  });
  net.run_on(5, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kOperator);
    e.subscribe(kOperator, readings_filter(), out);
    e.advertise(kOperator,
                Filter{eq("stream", "aggregates"),
                       ge("sum", std::int64_t{0}),
                       ge("window", std::int64_t{0})},
                out);
  });
  net.run_on(13, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kSink);
    e.subscribe(kSink, aggregates_filter(), out);
  });
  net.run();

  // The sensor emits a reading every 50 ms for 10 s.
  for (int i = 0; i < 200; ++i) {
    net.events().schedule_at(0.05 * i, [&, i] {
      Publication r({0, 0}, {{"stream", "readings"},
                             {"value", std::int64_t{i}},
                             {"seq", std::int64_t{i}}});
      net.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
        e.publish(kSensor, std::move(r), out);
      });
    });
  }

  // Mid-stream, at t=5s, the operator migrates from broker 5 to broker 12
  // (closer to the sink). Its subscription, advertisement and window state
  // all move in one transaction.
  net.events().schedule_at(5.0, [&] {
    std::printf("  [t= 5.000s] *** migrating operator: broker 5 -> 12 ***\n");
    net.run_on(5, [](MobilityEngine& e, Broker::Outputs& out) {
      e.initiate_move(kOperator, 12, out);
    });
  });

  net.run();

  std::printf("\nwindows received: %zu/20, duplicates: %d\n",
              windows_received.size(), duplicate_windows);
  const auto& moves = net.stats().movements();
  std::printf("migration: %s in %.1f ms, %llu messages\n",
              moves.at(0).committed ? "committed" : "aborted",
              moves.at(0).duration() * 1e3,
              static_cast<unsigned long long>(
                  net.stats().messages_for_cause(moves.at(0).txn)));
  const bool ok = windows_received.size() == 20 && duplicate_windows == 0;
  std::printf("%s\n", ok ? "stream is gapless and duplicate-free"
                         : "STREAM CORRUPTED");
  return ok ? 0 : 1;
}
