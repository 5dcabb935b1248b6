// End-to-end control-plane tests: a Zipf-skewed stationary population on the
// paper's 14-broker topology, with the balancer migrating clients off the
// hot broker through real movement transactions. Asserts the load-skew
// reduction, convergence (per-client move budget), transactional safety
// (zero stationary losses, clean movement-invariant audit) and the
// metrics/trace surfaces.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "control/scenario_control.h"
#include "core/scenario.h"
#include "pubsub/workload.h"

namespace tmps {
namespace {

constexpr std::uint32_t kBrokers = 14;
constexpr std::uint32_t kClients = 60;

struct SkewedRun {
  std::shared_ptr<control::BalancerHandle> handle;
  std::unique_ptr<Scenario> scenario;
  /// Per-broker publication loads over the steady window [warmup, end).
  std::map<BrokerId, std::uint64_t> window_loads;

  LoadSkew skew() const { return load_skew(window_loads, kBrokers); }
};

ScenarioConfig skewed_config(bool balance) {
  ScenarioConfig cfg;
  // The reconfiguration protocol is exercised without covering (the
  // quenching optimization is unsound under reconfiguration mobility).
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Distinct;
  cfg.total_clients = kClients;
  cfg.mover_override = [](std::uint32_t) { return false; };  // all stationary
  const auto homes = zipf_broker_placement(kClients, kBrokers, 1.5, 5);
  cfg.home_override = [homes](std::uint32_t k) { return homes[k]; };
  cfg.publish_interval = 0.25;
  cfg.duration = 90.0;
  cfg.warmup = 30.0;
  cfg.audit = true;  // movement-invariant auditor over every balancer move

  cfg.broker.control.enabled = balance;
  cfg.broker.control.sample_interval = 1.0;
  cfg.broker.control.start_delay = 8.0;  // let joins settle
  cfg.broker.control.imbalance_high = 1.3;
  cfg.broker.control.imbalance_low = 1.1;
  cfg.broker.control.client_cooldown = 10.0;
  cfg.broker.control.max_moves_per_client = 2;
  return cfg;
}

SkewedRun run_skewed(bool balance) {
  SkewedRun run;
  ScenarioConfig cfg = skewed_config(balance);
  run.handle = control::install_balancer(cfg);

  // Snapshot loads at warmup; the steady window is (final - baseline).
  auto baseline = std::make_shared<std::map<BrokerId, std::uint64_t>>();
  const double warmup = cfg.warmup;
  cfg.post_build.push_back([baseline, warmup](Scenario& s) {
    s.net().events().schedule_at(warmup, [baseline, &s] {
      *baseline = s.stats().broker_pub_loads();
    });
  });

  run.scenario = std::make_unique<Scenario>(std::move(cfg));
  run.scenario->run();

  run.window_loads = run.scenario->stats().broker_pub_loads();
  for (auto& [b, n] : run.window_loads) {
    const auto it = baseline->find(b);
    if (it != baseline->end()) n -= std::min(n, it->second);
  }
  return run;
}

TEST(Balancer, ReducesLoadSkewOfZipfPlacementWithoutLosses) {
  const SkewedRun off = run_skewed(false);
  const SkewedRun on = run_skewed(true);

  ASSERT_EQ(off.handle->balancer, nullptr) << "disabled config built one";
  ASSERT_NE(on.handle->balancer, nullptr);
  const control::Balancer& bal = *on.handle->balancer;

  // The placement is genuinely skewed and the balancer worked on it.
  EXPECT_GT(off.skew().ratio(), 1.8) << "placement not skewed enough";
  EXPECT_GT(bal.state().initiated, 0u);
  EXPECT_GT(bal.state().committed, 0u);

  // Migrations moved the hotspot's publication load: the steady-window
  // max/mean ratio must drop materially (the bench asserts the full 2x on
  // the longer paper-scale run).
  EXPECT_LT(on.skew().ratio(), off.skew().ratio() / 1.3)
      << "off ratio " << off.skew().ratio() << " on ratio "
      << on.skew().ratio();

  // Convergence: the per-client budget held.
  for (const auto& [client, moves] : bal.moves_per_client()) {
    EXPECT_LE(moves, 2u) << "client " << client << " oscillated";
  }

  // Transactional safety under migration of "stationary" clients.
  EXPECT_EQ(on.scenario->audit().stationary_losses, 0u);
  EXPECT_EQ(on.scenario->audit().duplicates, 0u);
  EXPECT_TRUE(on.scenario->audit_report().clean())
      << on.scenario->audit_report().summary();

  // The balancer's series landed in the registry.
  obs::MetricsRegistry& mr = *on.scenario->net().metrics();
  EXPECT_EQ(mr.counter_value("control_movements_initiated_total"),
            bal.state().initiated);
  EXPECT_EQ(mr.counter_value("control_movements_committed_total"),
            bal.state().committed);
}

TEST(Balancer, StaysIdleWithoutLoad) {
  ScenarioConfig cfg = skewed_config(true);
  cfg.publish_interval = 0;  // no publications: all load scores are zero
  cfg.audit = false;
  cfg.duration = 40.0;
  auto handle = control::install_balancer(cfg);
  Scenario s(std::move(cfg));
  s.run();
  ASSERT_NE(handle->balancer, nullptr);
  EXPECT_GT(handle->balancer->state().ticks, 0u);
  EXPECT_EQ(handle->balancer->state().initiated, 0u);
  EXPECT_FALSE(handle->balancer->policy().engaged());
}

TEST(Balancer, StateJsonCarriesTheControlSeries) {
  ScenarioConfig cfg = skewed_config(true);
  cfg.duration = 50.0;
  cfg.audit = false;
  auto handle = control::install_balancer(cfg);
  Scenario s(std::move(cfg));
  s.run();
  ASSERT_NE(handle->balancer, nullptr);
  const std::string json = handle->balancer->state_json();
  EXPECT_NE(json.find("\"imbalance_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"initiated\":"), std::string::npos);
  EXPECT_NE(json.find("\"inflight\":"), std::string::npos);
}

}  // namespace
}  // namespace tmps
