// Scenario glue for the repair loop, mirroring control/scenario_control:
// chains onto ScenarioConfig::post_engines so that when
// `cfg.broker.repair.enabled` is set (or TMPS_REPAIR=1), every broker gets a
// RepairEngine attached to its mobility engine with sweeps running for the
// scenario's duration.
#pragma once

#include <memory>
#include <vector>

#include "core/scenario.h"
#include "repair/repair_engine.h"

namespace tmps::repair {

/// Owns the per-broker repair engines for one Scenario run. Keep the handle
/// alive for the lifetime of the Scenario (the engines hold pointers into
/// it); it is also how benches/tests read per-broker RepairStats afterwards.
struct RepairHandle {
  std::vector<std::unique_ptr<RepairEngine>> engines;

  /// One engine per broker, in broker order (none when repair is off).
  RepairEngine* engine_of(BrokerId b) const {
    return b >= 1 && b <= engines.size() ? engines[b - 1].get() : nullptr;
  }
};

/// Installs the repair loop into `cfg` (composable with install_balancer and
/// any existing post_engines hook). No-op at run time unless
/// cfg.broker.repair.enabled.
std::shared_ptr<RepairHandle> install_repair(ScenarioConfig& cfg);

}  // namespace tmps::repair
