// Scenario glue for the session layer, mirroring repair/scenario_repair:
// chains onto ScenarioConfig::post_engines so that when
// `cfg.broker.session.enabled` is set (or TMPS_SESSION=1), every broker gets
// a SessionManager attached to its mobility engine with timer sweeps running
// for the scenario's duration.
#pragma once

#include <memory>
#include <vector>

#include "core/scenario.h"
#include "repair/scenario_repair.h"
#include "session/session_manager.h"

namespace tmps::session {

/// Owns the per-broker session managers for one Scenario run. Keep the
/// handle alive for the lifetime of the Scenario; it is also how benches and
/// tests drive session churn (open/disconnect/reattach) and read stats.
struct SessionHandle {
  std::vector<std::unique_ptr<SessionManager>> managers;

  /// One manager per broker, in broker order (none when sessions are off).
  SessionManager* manager_of(BrokerId b) const {
    return b >= 1 && b <= managers.size() ? managers[b - 1].get() : nullptr;
  }
};

/// Installs the session layer into `cfg` (composable with install_repair and
/// any existing post_engines hook). No-op at run time unless
/// cfg.broker.session.enabled. When `repair` is passed (install_repair's
/// handle from the same cfg), each broker's repair engine gets its session
/// probe wired to the co-located manager, so orphan retraction defers to
/// live grace windows and fast-tracks expired sessions.
std::shared_ptr<SessionHandle> install_sessions(
    ScenarioConfig& cfg, std::shared_ptr<repair::RepairHandle> repair = {});

}  // namespace tmps::session
