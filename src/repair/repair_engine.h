// Per-broker anti-entropy repair loop: promotes the movement-invariant
// auditor from detector to healer (PSVR-style self-stabilization).
//
// Each broker periodically runs a hop-local invariant sweep over its own
// SRT/PRT/lasthop/shadow state plus the mobility engine's parked transaction
// records, and exchanges forwarding digests with its overlay neighbours
// (piggybacked over the overlay like the balancer's load digests). Every
// divergence from what the movement protocol says *should* hold yields a
// corrective routing op:
//
//   * stale shadow state for a transaction -> probe the coordinator
//     (recoverable from the TxnId encoding) and commit or unwind on the
//     verdict;
//   * parked coordinator state -> MobilityEngine::repair_sweep_parked
//     (abort a pre-commit-point source, retransmit a post-commit-point
//     state message, probe from a parked target);
//   * a PRT/SRT entry whose lasthop is a client not hosted here -> retract
//     the orphan (aged across `confirm_rounds` sweeps);
//   * a neighbour's digest no longer claims an entry it is the lasthop of
//     -> retract; a digest claims an entry we lack -> request a re-send
//     (ordinary SubscribeMsg/AdvertiseMsg upserts);
//   * an entry the SRT says must be forwarded over a link but is not (and
//     is not covered there) -> re-issue: quench/un-quench reconciliation,
//     the covering-safe mobility story.
//
// Destructive repairs (retractions, aborts) require the suspicion to
// persist; additive repairs (re-forwards, retransmissions, probes) are
// idempotent and fire immediately. From any reachable illegal configuration
// each sweep strictly shrinks the set of violated local invariants, so the
// system converges back to a legal configuration within a bounded number of
// rounds — see docs/REPAIR.md for the catalogue and convergence argument.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "broker/broker_config.h"
#include "core/mobility_engine.h"

namespace tmps::repair {

/// Monotonic per-broker repair activity counters (mirrored into the metrics
/// registry as tmps_repair_rounds / tmps_repair_ops_total).
struct RepairStats {
  std::uint64_t rounds = 0;          ///< sweeps executed
  std::uint64_t ops_total = 0;       ///< corrective actions (all kinds)
  std::uint64_t parked_ops = 0;      ///< coordinator-side parked-txn fixes
  std::uint64_t probes_sent = 0;     ///< shadow-resolution probes
  std::uint64_t verdicts_applied = 0;
  std::uint64_t orphans_retracted = 0;  ///< local client-hop orphans
  std::uint64_t digest_retracts = 0;    ///< neighbour-digest orphans
  std::uint64_t reissues_requested = 0;
  std::uint64_t reissues_served = 0;
  std::uint64_t unquenches = 0;      ///< quench-reconciliation re-forwards
  std::uint64_t last_op_round = 0;   ///< round of the most recent op
  double last_op_time = 0;
  std::size_t suspect_shadows = 0;   ///< txns with live local shadow state
};

class RepairEngine {
 public:
  using Outputs = MobilityEngine::Outputs;

  /// Built and attached to `engine` by the host (HostCore), once per broker
  /// when BrokerConfig::repair is enabled; `env` is the broker's runtime, so
  /// the sweeps run at this broker. `cfg` is this broker's Repair section.
  RepairEngine(MobilityEngine& engine, RuntimeEnv& env, RepairConfig cfg);

  /// Schedules recurring sweeps, the first `first` seconds from now, then
  /// every sweep_interval until host time `until`.
  void start(double first, double until);

  /// One repair round: parked-transaction sweep, stale-shadow scan, orphan
  /// scan, quench reconciliation, neighbour digests. Public so tests can
  /// drive rounds manually. Emits via the engine's transmit hook.
  void sweep();

  /// The engine's repair handler: digests / re-send requests / verdicts
  /// arriving at this broker (probes are answered by the engine itself).
  void on_repair(BrokerId from, const Message& msg, Outputs& out);

  const RepairStats& stats() const { return stats_; }
  const RepairConfig& config() const { return cfg_; }
  BrokerId broker_id() const;

  /// Session-layer knowledge about a client-hop routing entry, consulted by
  /// the orphan sweep: 0 = none (default confirm_rounds aging), 1 = live
  /// session (veto retraction while its grace window runs), 2 = expired
  /// session (retract immediately, skipping the aging).
  using SessionProbe = std::function<int(ClientId)>;
  void set_session_probe(SessionProbe probe) { session_probe_ = std::move(probe); }

 private:
  std::size_t sweep_shadows(double now, Outputs& out);
  std::size_t sweep_orphans(Outputs& out);
  std::size_t sweep_quench(Outputs& out);
  void send_digests(Outputs& out);
  void on_digest(BrokerId from, const RepairDigestMsg& m, Outputs& out);
  void on_request(BrokerId from, const RepairRequestMsg& m, Outputs& out);
  void on_verdict(const RepairVerdictMsg& v, Outputs& out);
  /// Records `n` corrective actions (ops counter + convergence watermark).
  void note_ops(std::uint64_t n);
  void schedule_next(double delay);

  MobilityEngine* engine_;
  Broker* broker_;
  RuntimeEnv* env_;
  obs::Tracer* tracer_;
  RepairConfig cfg_;
  double until_ = 0;
  RepairStats stats_;
  SessionProbe session_probe_;
  obs::Counter* rounds_ctr_ = nullptr;
  obs::Counter* ops_ctr_ = nullptr;
  /// First time each transaction's shadow state was seen locally; entries
  /// for resolved transactions are pruned every sweep.
  std::map<TxnId, double> shadow_seen_;
  /// Suspicion ages for destructive repairs (consecutive sweeps/digests the
  /// divergence persisted).
  std::map<SubscriptionId, std::uint32_t> orphan_sub_rounds_;
  std::map<AdvertisementId, std::uint32_t> orphan_adv_rounds_;
  std::map<SubscriptionId, std::uint32_t> digest_sub_rounds_;
  std::map<AdvertisementId, std::uint32_t> digest_adv_rounds_;
};

}  // namespace tmps::repair
