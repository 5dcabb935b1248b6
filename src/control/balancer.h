// The load-balancing control loop: samples broker load, plans migrations
// (balance_policy.h) and executes them as movement transactions through the
// host's mobility engines (HostCore::run_on).
//
// The balancer is a *client of* the movement protocol, not part of it — it
// initiates movements exactly as an application would (try_initiate_move)
// and learns outcomes from the engines' movement callbacks. The 3PC-style
// transaction keeps every migration atomic and loss-free regardless of what
// the balancer decides, so a bad policy costs messages, never correctness.
// Safety valves on the execution side:
//
//   * at most 4 balancer-initiated transactions at once;
//   * a global 10 s pause after any abort/reject (an aborting
//     environment — admission refusals, injected failures, timeouts — must
//     not turn into a retry storm);
//   * ticks stop at the host-provided deadline, so a draining simulation
//     terminates.
//
// Everything observable is exported: `control_*` gauges/counters in the
// host's MetricsRegistry (scraped via /metrics), `control:*` trace events
// tagged with the real movement TxnId (they join the movement's waterfall
// in the trace inspector; the auditor ignores unknown event names), and
// state()/state_json() for the HTTP admin plane (control_admin.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "broker/broker_config.h"
#include "control/balance_policy.h"
#include "control/load_estimator.h"
#include "sim/host_core.h"

namespace tmps::control {

class Balancer {
 public:
  /// Optional queue-depth probe (the sim host wires
  /// SimNetwork::broker_backlog_seconds; hosts without one leave it unset).
  using BacklogFn = std::function<double(BrokerId)>;

  /// Balances the clients of every broker `host` holds.
  Balancer(ControlConfig cfg, HostCore& host);

  void set_backlog_fn(BacklogFn fn) { backlog_ = std::move(fn); }

  /// Schedules the control loop; ticks run every `sample_interval` until
  /// `env.now() + interval` would pass `deadline` (pass a huge deadline for
  /// an open-ended host).
  void start(double deadline);

  /// Feed every finished movement here (hosts multiplex their movement
  /// callback). Movements the balancer did not initiate are ignored.
  void on_movement(const MovementRecord& rec);

  /// One forced sample+plan+execute cycle (tests; start() drives this).
  void tick();

  struct State {
    double imbalance_ratio = 1.0;
    bool engaged = false;
    std::uint64_t ticks = 0;
    std::uint64_t initiated = 0;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t refused = 0;
    std::uint64_t cooldown_suppressed = 0;
    std::size_t inflight = 0;
    double backoff_until = 0;
  };
  const State& state() const { return state_; }
  /// The state as one JSON object (the /control admin route).
  std::string state_json() const;

  /// Committed balancer-initiated migrations per client (convergence
  /// assertions: no client should exceed cfg.max_moves_per_client).
  const std::map<ClientId, std::uint32_t>& moves_per_client() const {
    return moves_per_client_;
  }

  const LoadEstimator& estimator() const { return estimator_; }
  const BalancePolicy& policy() const { return policy_; }

 private:
  void schedule_next();
  std::map<BrokerId, BrokerSignals> gather_signals() const;
  std::vector<ClientInfo> gather_clients() const;
  void execute(const std::vector<MoveDecision>& plan);
  void export_gauges();

  ControlConfig cfg_;
  HostCore* host_;
  BacklogFn backlog_;
  LoadEstimator estimator_;
  BalancePolicy policy_;
  double deadline_ = 0;
  State state_;
  /// Balancer-initiated transactions still in flight: txn -> client.
  std::map<TxnId, ClientId> inflight_;
  std::map<ClientId, std::uint32_t> moves_per_client_;

  // Cached metric handles (registered in the constructor).
  obs::Gauge* g_ratio_ = nullptr;
  obs::Gauge* g_engaged_ = nullptr;
  obs::Gauge* g_inflight_ = nullptr;
  obs::Counter* c_initiated_ = nullptr;
  obs::Counter* c_committed_ = nullptr;
  obs::Counter* c_aborted_ = nullptr;
  obs::Counter* c_refused_ = nullptr;
  obs::Counter* c_suppressed_ = nullptr;
};

}  // namespace tmps::control
