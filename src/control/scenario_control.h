// Glue between the Scenario experiment driver (src/core) and the balancer.
//
// The control plane layers *above* the mobility engines, so the scenario
// does not link against it; instead this helper hangs the balancer off the
// scenario's post_build / movement_observer hooks. Usage:
//
//   ScenarioConfig cfg = ...;
//   cfg.broker.control.enabled = true;          // or TMPS_BALANCE=1
//   auto handle = control::install_balancer(cfg);
//   Scenario s(std::move(cfg));
//   s.run();
//   handle->balancer->state();                  // results
//
// The handle owns the Balancer (created during Scenario::build, once the
// engines exist); keep it alive until after run(). When the config section
// is disabled the hooks no-op and `handle->balancer` stays null, so callers
// can install unconditionally and branch on the flag.
#pragma once

#include <memory>

#include "control/balancer.h"
#include "core/scenario.h"

namespace tmps::control {

struct BalancerHandle {
  std::unique_ptr<Balancer> balancer;
};

/// Appends a post_build hook and chains onto any movement_observer already
/// in `cfg`. The balancer samples the sim's queue backlog
/// (SimNetwork::broker_backlog_seconds) and runs until cfg.duration.
std::shared_ptr<BalancerHandle> install_balancer(ScenarioConfig& cfg);

}  // namespace tmps::control
