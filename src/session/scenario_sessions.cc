#include "session/scenario_sessions.h"

namespace tmps::session {

std::shared_ptr<SessionHandle> install_sessions(
    ScenarioConfig& cfg, std::shared_ptr<repair::RepairHandle> repair) {
  auto handle = std::make_shared<SessionHandle>();
  auto prev_engines = std::move(cfg.post_engines);
  cfg.post_engines = [handle, prev_engines, repair](Scenario& s) {
    if (prev_engines) prev_engines(s);
    const SessionConfig& sc = s.config().broker.session;
    if (!sc.enabled) return;
    SimNetwork& net = s.net();
    for (BrokerId b = 1; b <= net.overlay().broker_count(); ++b) {
      SessionConfig per = sc;
      // Stagger the first tick per broker so the fleet does not sweep in
      // lockstep.
      per.start_delay =
          (sc.start_delay > 0 ? sc.start_delay : sc.tick_interval) +
          0.03 * static_cast<double>(b - 1);
      auto mgr = std::make_unique<SessionManager>(net.engine(b), net, per);
      net.engine(b).set_session_handler(mgr.get());
      mgr->start(s.config().duration);
      if (repair) {
        if (repair::RepairEngine* re = repair->engine_of(b)) {
          SessionManager* raw = mgr.get();
          re->set_session_probe(
              [raw](ClientId client) { return raw->repair_hint(client); });
        }
      }
      handle->managers.push_back(std::move(mgr));
    }
  };
  return handle;
}

}  // namespace tmps::session
