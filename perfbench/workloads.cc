#include "workloads.h"

namespace perfbench {

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  {
    Workload w;
    w.name = "pub_fig7";
    w.why =
        "small anchored Fig. 7 tables, so fixed per-hop cost (codec, socket, "
        "broker overhead) dominates and match() only probes tiny buckets";
    w.publisher_at = 1;
    w.shape = FilterShape::kFig7Covered;
    w.subscribers = 400;
    w.families = 40;
    w.sub_brokers = {4, 5};
    w.movers = 40;
    w.open_rate = 5000;
    w.open_pubs_per_s = 1500;
    w.closed_pubs_per_s = 15000;
    w.rate_window = 7500;
    w.paced_moves_per_s = 320;
    w.unpaced_moves_per_s = 1200;
    w.move_window = 1000;
    w.replay_pubs = 4000;
    w.replay_moves = 200;
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "pub_range";
    w.why =
        "4,000 range filters in one class bucket under ~30 replacements/s, so "
        "RoutingTables::match and its write path dominate";
    w.publisher_at = 1;
    w.shape = FilterShape::kRange;
    w.subscribers = 4000;
    w.sub_brokers = {2, 3, 4, 5};
    w.movers = 40;
    w.churn_every_open = 10;    // 30/s at 300 pubs/s
    w.churn_every_closed = 40;  // ~30/s at ~1.2k pubs/s
    w.open_rate = 300;
    w.open_pubs_per_s = 120;
    w.closed_pubs_per_s = 300;
    w.rate_window = 250;
    w.paced_moves_per_s = 320;
    w.unpaced_moves_per_s = 600;
    w.move_window = 500;
    w.replay_pubs = 200;
    w.replay_moves = 100;
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "move_reconfig";
    w.why =
        "40 movers alternating B1<->B5 under reconfiguration while B3 "
        "publishes 2k/s: 16 protocol hops per move racing publications";
    w.publisher_at = 3;
    w.shape = FilterShape::kFig7Covered;
    w.subscribers = 200;
    w.families = 20;
    w.sub_brokers = {2, 3, 4};
    w.movers = 40;
    w.closed_pubs_per_s = 20000;
    w.rate_window = 10000;
    w.paced_moves_per_s = 550;
    w.unpaced_moves_per_s = 2000;
    w.move_window = 2000;
    w.move_pub_rate = 2000;
    w.paced_pubs_per_s = 600;
    w.unpaced_pubs_per_s = 300;
    w.replay_pubs = 3000;
    w.replay_moves = 1000;
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
