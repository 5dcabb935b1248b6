#include "repair/scenario_repair.h"

namespace tmps::repair {

std::shared_ptr<RepairHandle> install_repair(ScenarioConfig& cfg) {
  auto handle = std::make_shared<RepairHandle>();
  auto prev_engines = std::move(cfg.post_engines);
  cfg.post_engines = [handle, prev_engines](Scenario& s) {
    if (prev_engines) prev_engines(s);
    const RepairConfig& rc = s.config().broker.repair;
    if (!rc.enabled) return;
    SimNetwork& net = s.net();
    for (BrokerId b = 1; b <= net.overlay().broker_count(); ++b) {
      RepairConfig per = rc;
      // Stagger the first sweep per broker so the fleet does not sweep (and
      // digest) in lockstep.
      per.start_delay = (rc.start_delay > 0 ? rc.start_delay
                                            : rc.sweep_interval) +
                        0.05 * static_cast<double>(b - 1);
      auto re = std::make_unique<RepairEngine>(net.engine(b), net, per);
      net.engine(b).set_repair_handler(re.get());
      re->start(s.config().duration);
      handle->engines.push_back(std::move(re));
    }
  };
  return handle;
}

}  // namespace tmps::repair
