// Fig. 8 — movement latency over time.
//
// 400 clients (covered workload) repeatedly move between brokers 1<->13 and
// 2<->14 with a 10 s pause. The paper's scatter plot is rendered as
// time-bucketed statistics per movement pair, one block per protocol.
//
// Expected shape (paper): the reconfiguration protocol is more than an order
// of magnitude faster than the covering protocol; early movements are slower
// (join load); with the covering protocol the 1<->13 pair (which hosts the
// odd-numbered subscriptions, including the covering roots) is slower than
// the 2<->14 pair.
#include <algorithm>
#include <map>
#include <vector>

#include "bench_util.h"

using namespace tmps;
using namespace tmps::bench;

int main() {
  print_header("Fig. 8 — movement latency over time",
               "Fig. 8(a) reconfiguration protocol, Fig. 8(b) covering "
               "protocol");
  BenchJson json = json_out("fig08_latency_over_time");
  {
    ScenarioConfig tpl =
        paper_config(MobilityProtocol::Reconfiguration, WorkloadKind::Covered);
    tpl.warmup = 0;  // this figure *shows* the setup phase
    scenario_config_fields(json.config(), tpl).field("workload", "covered");
  }

  for (auto proto :
       {MobilityProtocol::Reconfiguration, MobilityProtocol::Traditional}) {
    ScenarioConfig cfg = paper_config(proto, WorkloadKind::Covered);
    cfg.warmup = 0;  // this figure *shows* the setup phase
    apply_tracing(cfg, std::string("fig08:") + label(proto));
    Scenario s(cfg);
    s.run();
    check_audit(s, std::string("fig08:") + label(proto));

    const double bucket = cfg.duration / 10.0;
    // pair 0 = brokers 1<->13 (odd subscriptions), pair 1 = 2<->14 (even).
    std::map<int, std::array<Summary, 2>> buckets;
    for (const auto& m : s.movement_records()) {
      if (!m.committed) continue;
      const int b = static_cast<int>(m.start / bucket);
      const int pair = (m.source == 1 || m.source == 13 || m.target == 13 ||
                        m.target == 1)
                           ? 0
                           : 1;
      buckets[b][pair].add(m.duration() * 1e3);
    }

    std::printf("\n[%s protocol]\n", label(proto));
    std::printf("%10s  %22s  %22s\n", "time(s)", "brokers 1<->13 (ms)",
                "brokers 2<->14 (ms)");
    std::printf("%10s  %10s %11s  %10s %11s\n", "", "mean", "max", "mean",
                "max");
    for (const auto& [b, pairs] : buckets) {
      std::printf("%4.0f-%-5.0f  %10.1f %11.1f  %10.1f %11.1f\n", b * bucket,
                  (b + 1) * bucket, pairs[0].mean(), pairs[0].max(),
                  pairs[1].mean(), pairs[1].max());
      json.add_row()
          .field("protocol", label(proto))
          .field("t0_s", b * bucket)
          .field("t1_s", (b + 1) * bucket)
          .field("pair13_mean_ms", pairs[0].mean())
          .field("pair13_max_ms", pairs[0].max())
          .field("pair14_mean_ms", pairs[1].mean())
          .field("pair14_max_ms", pairs[1].max());
    }
    const Summary all = s.stats().latency_summary(cfg.warmup, cfg.duration);
    std::printf("overall: mean=%.1f ms  max=%.1f ms  movements=%llu\n",
                all.mean() * 1e3, all.max() * 1e3,
                static_cast<unsigned long long>(all.count()));

    // End-to-end publication delivery latency from provenance.
    RunResult dlv;
    fill_delivery_latency(s, dlv);
    std::printf("delivery latency (n=%llu): p50=%.2f ms  p95=%.2f ms  "
                "p99=%.2f ms\n",
                static_cast<unsigned long long>(dlv.deliveries),
                dlv.dlv_p50_ms, dlv.dlv_p95_ms, dlv.dlv_p99_ms);
    json.add_row()
        .field("protocol", label(proto))
        .field("row_kind", "delivery_latency")
        .field("deliveries", dlv.deliveries)
        .field("dlv_p50_ms", dlv.dlv_p50_ms)
        .field("dlv_p95_ms", dlv.dlv_p95_ms)
        .field("dlv_p99_ms", dlv.dlv_p99_ms);

    // Congestion evidence: the busiest brokers' utilization. The covering
    // protocol's latency comes from saturating the spine brokers.
    std::vector<std::pair<double, BrokerId>> util;
    for (BrokerId b = 1; b <= 14; ++b) {
      util.push_back({s.net().broker_busy_seconds(b) / cfg.duration, b});
    }
    std::sort(util.rbegin(), util.rend());
    std::printf("busiest brokers:");
    for (int i = 0; i < 3; ++i) {
      std::printf("  B%u %.0f%%", util[i].second, util[i].first * 100);
    }
    std::printf("\n");
  }
  return 0;
}
