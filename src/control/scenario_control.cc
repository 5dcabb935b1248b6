#include "control/scenario_control.h"

#include <utility>

namespace tmps::control {

std::shared_ptr<BalancerHandle> install_balancer(ScenarioConfig& cfg) {
  auto handle = std::make_shared<BalancerHandle>();

  cfg.post_build.push_back([handle](Scenario& s) {
    const ControlConfig& ctl = s.config().broker.control;
    if (!ctl.enabled) return;
    handle->balancer = std::make_unique<Balancer>(ctl, s.net());
    handle->balancer->set_backlog_fn(
        [net = &s.net()](BrokerId b) { return net->broker_backlog_seconds(b); });
    handle->balancer->start(s.config().duration);
  });

  auto prev_observer = std::move(cfg.movement_observer);
  cfg.movement_observer = [handle, prev_observer](const MovementRecord& rec) {
    if (prev_observer) prev_observer(rec);
    if (handle->balancer) handle->balancer->on_movement(rec);
  };

  return handle;
}

}  // namespace tmps::control
