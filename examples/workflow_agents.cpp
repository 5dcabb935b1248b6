// Workflow-agent redeployment on the LIVE TCP transport (the paper's
// distributed process-execution motivation): task-executing agents are
// hosted by brokers, consume task events for their activity, publish
// completion events, and get redeployed between execution engines at
// runtime. Everything here runs on real threads and loopback sockets — the
// same protocol code the simulator benchmarks.
//
//   build/examples/workflow_agents
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "transport/tcp_transport.h"

using namespace tmps;

namespace {

Filter task_filter(const std::string& activity) {
  return Filter{eq("kind", "task"), eq("activity", activity)};
}
Filter task_adv() {
  return Filter{eq("kind", "task"), present("activity"), present("case")};
}
Filter done_adv() {
  return Filter{eq("kind", "done"), present("activity"), present("case")};
}

}  // namespace

int main() {
  const Overlay overlay = Overlay::paper_default();
  // Covering quenching is unsound under reconfiguration mobility (a quenched
  // entry loses its delivery path when its coverer moves), so mobile
  // deployments run with covering disabled — see DESIGN.md.
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  TcpTransport net(overlay, /*base_port=*/0, bc);

  constexpr ClientId kDispatcher = 1;
  constexpr ClientId kAgentA = 10;  // executes activity "validate"
  constexpr ClientId kAgentB = 11;  // executes activity "archive"
  constexpr ClientId kMonitor = 20;

  std::atomic<int> completed{0};

  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    net.engine(b).set_delivery_sink(
        [&net, &completed](ClientId c, const Publication& p, SimTime) {
          if (c == kAgentA || c == kAgentB) {
            // Execute the task and publish its completion — from wherever
            // the agent currently runs. The publish is deferred to the timer
            // thread so no broker lock is held while locating the agent.
            Publication done({0, 0},
                             {{"kind", "done"},
                              {"activity", *p.find("activity")},
                              {"case", *p.find("case")}});
            net.schedule(0.0, [&net, c, done] {
              for (BrokerId b2 = 1; b2 <= 14; ++b2) {
                bool found = false;
                net.run_on(b2, [&](MobilityEngine& e, Broker::Outputs& out) {
                  if (e.find_client(c)) {
                    e.publish(c, Publication(done), out);
                    found = true;
                  }
                });
                if (found) break;
              }
            });
          } else if (c == kMonitor) {
            completed.fetch_add(1);
            std::printf("  monitor: case %lld activity %s done\n",
                        static_cast<long long>(p.find("case")->as_int()),
                        p.find("activity")->as_string().c_str());
          }
        });
  }
  if (!net.start()) {
    std::fprintf(stderr, "cannot open loopback sockets\n");
    return 1;
  }

  // The dispatcher publishes task events; agents subscribe per activity;
  // a monitor watches completions.
  net.run_on(3, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kDispatcher);
    e.advertise(kDispatcher, task_adv(), out);
  });
  net.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kAgentA);
    e.subscribe(kAgentA, task_filter("validate"), out);
    e.advertise(kAgentA, done_adv(), out);
  });
  net.run_on(7, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kAgentB);
    e.subscribe(kAgentB, task_filter("archive"), out);
    e.advertise(kAgentB, done_adv(), out);
  });
  net.run_on(14, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMonitor);
    e.subscribe(kMonitor, Filter{eq("kind", "done"), present("activity"),
                                 present("case")},
                out);
  });
  net.drain();

  auto dispatch = [&](int case_id, const std::string& activity) {
    std::printf("dispatching case %d activity %s\n", case_id,
                activity.c_str());
    net.run_on(3, [&](MobilityEngine& e, Broker::Outputs& out) {
      Publication task({0, 0}, {{"kind", "task"},
                                {"activity", activity},
                                {"case", std::int64_t{case_id}}});
      e.publish(kDispatcher, std::move(task), out);
    });
    net.drain();
  };

  dispatch(1, "validate");
  dispatch(1, "archive");

  // Redeploy agent A from broker 6 to broker 11 (engine rebalancing) and
  // keep executing: the movement transaction runs live on threads.
  std::printf("redeploying agent A: broker 6 -> 11\n");
  net.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.initiate_move(kAgentA, 11, out);
  });
  net.drain();

  dispatch(2, "validate");
  dispatch(2, "archive");

  // Agent completions are published from the timer thread; wait for the
  // last one rather than racing shutdown against it.
  for (int i = 0; i < 300 && completed.load() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  net.drain();
  net.stop();

  std::printf("\ncompleted activities: %d/4\n", completed.load());
  std::printf("movements committed: %zu\n", net.stats().movements().size());
  return completed.load() == 4 ? 0 : 1;
}
