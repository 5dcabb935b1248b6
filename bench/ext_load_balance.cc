// Extension: mobility-driven load balancing (src/control).
//
// A Zipf-skewed stationary population on the paper's 14-broker overlay
// concentrates publication load on a few brokers. The control plane samples
// per-broker load, detects the imbalance and migrates clients off the hot
// brokers through real movement transactions (Sec. 4) — the same protocol
// the paper built for client mobility, driven here by the system itself.
//
// Expected: the steady-window max/mean delivery-load ratio — the
// client-serving fan-out work migration actually relocates; transit
// forwarding through overlay hubs is topology-bound — drops by at least 2x
// with the balancer on, every client stays within its move budget
// (convergence, no oscillation), and the movement-invariant audit stays
// clean (run with TMPS_AUDIT=1). The bench exits nonzero if any of these
// fail, so CI can gate on it.
#include <algorithm>
#include <map>
#include <memory>

#include "bench_util.h"
#include "control/scenario_control.h"
#include "pubsub/workload.h"

using namespace tmps;
using namespace tmps::bench;

namespace {

struct BalanceResult {
  LoadSkew skew;       // deliveries: the load the balancer controls
  LoadSkew pub_skew;   // pubs processed + deliveries (incl. transit)
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t refused = 0;
  std::uint64_t max_moves = 0;  // per-client maximum (convergence)
  std::uint64_t stationary_losses = 0;
  std::uint64_t duplicates = 0;
};

constexpr std::uint32_t kBrokers = 14;

ScenarioConfig base_config(std::uint32_t clients, double skew) {
  ScenarioConfig cfg;
  // Reconfiguration mobility runs without covering (quenching is unsound
  // when a coverer can move away).
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Distinct;
  cfg.total_clients = clients;
  cfg.mover_override = [](std::uint32_t) { return false; };  // all stationary
  const auto homes = zipf_broker_placement(clients, kBrokers, skew, 5);
  cfg.home_override = [homes](std::uint32_t k) { return homes[k]; };
  cfg.publish_interval = 0.25;
  cfg.duration = full_run() ? 600.0 : 150.0;
  cfg.warmup = 40.0;
  cfg.seed = 7;
  return cfg;
}

BalanceResult run_one(ScenarioConfig cfg, const std::string& run_label) {
  apply_tracing(cfg, run_label);
  auto handle = control::install_balancer(cfg);

  // Baseline the per-broker loads at warmup; the steady window is the
  // difference against the final counters.
  auto base_deliv = std::make_shared<std::map<BrokerId, std::uint64_t>>();
  auto base_pub = std::make_shared<std::map<BrokerId, std::uint64_t>>();
  const double warmup = cfg.warmup;
  cfg.post_build.push_back([=](Scenario& s) {
    s.net().events().schedule_at(warmup, [=, &s] {
      *base_deliv = s.stats().broker_delivery_loads();
      *base_pub = s.stats().broker_pub_loads();
    });
  });

  Scenario s(std::move(cfg));
  s.run();
  check_audit(s, run_label);

  const auto window_of = [](std::map<BrokerId, std::uint64_t> final_loads,
                            const std::map<BrokerId, std::uint64_t>& base) {
    for (auto& [b, n] : final_loads) {
      const auto it = base.find(b);
      if (it != base.end()) n -= std::min(n, it->second);
    }
    return final_loads;
  };

  BalanceResult r;
  r.skew =
      load_skew(window_of(s.stats().broker_delivery_loads(), *base_deliv),
                kBrokers);
  r.pub_skew =
      load_skew(window_of(s.stats().broker_pub_loads(), *base_pub), kBrokers);
  r.stationary_losses = s.audit().stationary_losses;
  r.duplicates = s.audit().duplicates;
  if (handle->balancer) {
    r.committed = handle->balancer->state().committed;
    r.aborted = handle->balancer->state().aborted;
    r.refused = handle->balancer->state().refused;
    for (const auto& [client, moves] : handle->balancer->moves_per_client()) {
      r.max_moves = std::max<std::uint64_t>(r.max_moves, moves);
    }
  }
  return r;
}

}  // namespace

int main() {
  print_header("Extension — mobility-driven load balancing",
               "Sec. 4 movement transactions as a control-plane actuator");

  BenchJson json = json_out("ext_load_balance");
  const std::uint32_t clients = 60;
  const double zipf = 1.5;
  json.config()
      .field("brokers", kBrokers)
      .field("clients", clients)
      .field("zipf_skew", zipf);

  std::printf("%12s | %8s %8s %8s %9s | %9s %7s %9s | %6s %4s\n", "run",
              "max", "mean", "ratio", "pub ratio", "committed", "aborted",
              "max moves", "losses", "dups");

  struct Variant {
    const char* label;
    bool balance;
    double churn;
  };
  const Variant variants[] = {
      {"static", false, 0.0},
      {"balanced", true, 0.0},
      {"bal+churn", true, 15.0},
  };

  std::map<std::string, BalanceResult> results;
  for (const Variant& v : variants) {
    ScenarioConfig cfg = base_config(clients, zipf);
    cfg.background_churn_interval = v.churn;
    cfg.broker.control.enabled = v.balance;
    cfg.broker.control.sample_interval = 1.0;
    cfg.broker.control.start_delay = 8.0;
    cfg.broker.control.imbalance_high = 1.3;
    cfg.broker.control.imbalance_low = 1.1;
    cfg.broker.control.client_cooldown = 10.0;
    cfg.broker.control.max_moves_per_client = 2;
    // Balance purely on the client-serving signal: delivery fan-out moves
    // with the client; publication transit through hubs does not.
    cfg.broker.control.delivery_weight = 1.0;
    cfg.broker.control.pub_weight = 0.1;
    cfg.broker.control.msg_weight = 0.0;

    const std::string run = std::string("extlb:") + v.label;
    const BalanceResult r = run_one(std::move(cfg), run);
    results[v.label] = r;

    std::printf("%12s | %8llu %8.1f %8.2f %9.2f | %9llu %7llu %9llu | "
                "%6llu %4llu\n",
                v.label, static_cast<unsigned long long>(r.skew.max),
                r.skew.mean, r.skew.ratio(), r.pub_skew.ratio(),
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.aborted),
                static_cast<unsigned long long>(r.max_moves),
                static_cast<unsigned long long>(r.stationary_losses),
                static_cast<unsigned long long>(r.duplicates));
    json.add_row()
        .field("run", v.label)
        .field("balance", v.balance)
        .field("churn_interval", v.churn)
        .field("load_max", r.skew.max)
        .field("load_mean", r.skew.mean)
        .field("load_ratio", r.skew.ratio())
        .field("pub_load_ratio", r.pub_skew.ratio())
        .field("moves_committed", r.committed)
        .field("moves_aborted", r.aborted)
        .field("moves_refused", r.refused)
        .field("max_moves_per_client", r.max_moves)
        .field("stationary_losses", r.stationary_losses)
        .field("duplicates", r.duplicates);
  }

  // Gates: >= 2x skew reduction, convergence, transactional safety.
  const BalanceResult& off = results.at("static");
  const BalanceResult& on = results.at("balanced");
  bool ok = true;
  if (on.skew.ratio() * 2.0 > off.skew.ratio()) {
    std::fprintf(stderr,
                 "GATE FAILED: balancer reduced max/mean only %.2f -> %.2f "
                 "(need >= 2x)\n",
                 off.skew.ratio(), on.skew.ratio());
    ok = false;
  }
  for (const auto& [label, r] : results) {
    if (r.max_moves > 2) {
      std::fprintf(stderr,
                   "GATE FAILED: run '%s' moved a client %llu times "
                   "(budget 2) — no convergence\n",
                   label.c_str(),
                   static_cast<unsigned long long>(r.max_moves));
      ok = false;
    }
  }
  if (on.stationary_losses != 0 || on.duplicates != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: balanced run lost %llu / duplicated %llu "
                 "deliveries\n",
                 static_cast<unsigned long long>(on.stationary_losses),
                 static_cast<unsigned long long>(on.duplicates));
    ok = false;
  }
  std::printf("\n%s: static ratio %.2f -> balanced %.2f (%.1fx reduction)\n",
              ok ? "PASS" : "FAIL", off.skew.ratio(), on.skew.ratio(),
              on.skew.ratio() > 0 ? off.skew.ratio() / on.skew.ratio() : 0.0);
  return ok ? 0 : 1;
}
