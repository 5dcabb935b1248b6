// Experiment driver: wires an overlay, simulated network, mobility engines,
// publishers and subscriber populations into the movement scenarios of the
// paper's evaluation (Sec. 5), and exposes the metrics its figures plot.
//
// Population model (matching the paper's description):
//  * subscribers connect to the ends of "move pairs" (default: brokers 1 and
//    2, moving to 13 and 14 respectively; Fig. 6 topology);
//  * each group of 10 subscribers forms an independent covering family drawn
//    from the configured Fig. 7 workload — subscription number i of a family
//    is held by one client; odd-numbered subscriptions sit on the first move
//    pair, even-numbered on the second (as in Fig. 8);
//  * stationary publishers at the leaf brokers advertise the full content
//    space and publish periodically (background pub/sub activity);
//  * moving clients pause at each broker (default 10 s) and move back and
//    forth between the ends of their pair.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/mobility_engine.h"
#include "obs/audit.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {

class Scenario;

struct ScenarioConfig {
  // Network.
  std::optional<Overlay> overlay;  // default: Overlay::paper_default()
  /// Per-broker options (covering, covering index, admin, observability).
  /// broker.obs supplies defaults for the sink paths below; populate it via
  /// BrokerConfig::from_env to honour TMPS_TRACE / TMPS_AUDIT.
  BrokerConfig broker;
  NetworkProfile net = NetworkProfile::lan();
  MobilityConfig mobility;

  // Subscriber population.
  WorkloadKind workload = WorkloadKind::Covered;
  std::uint32_t total_clients = 400;
  /// Only the first `moving_clients` clients move; the rest are stationary.
  std::uint32_t moving_clients = static_cast<std::uint32_t>(-1);
  std::vector<std::pair<BrokerId, BrokerId>> move_pairs = {{1, 13}, {2, 14}};
  double pause_between_moves = 10.0;
  double join_window = 5.0;

  /// Moving clients are *publishers* (they advertise their family filter
  /// instead of subscribing): exercises the advertisement-reconfiguration
  /// machinery of Sec. 4.4 at scale. Stationary clients still subscribe.
  bool movers_are_publishers = false;

  /// Overrides the filter of client k (0-based); default is the family
  /// workload assignment described above.
  std::function<Filter(std::uint32_t)> filter_override;
  /// Overrides which clients move: return true if client k moves. Takes
  /// precedence over `moving_clients`.
  std::function<bool(std::uint32_t)> mover_override;
  /// Overrides the home (join) broker of client k; default is the first end
  /// of the client's move pair. Skewed-placement experiments use this with
  /// zipf_broker_placement to concentrate clients on a few brokers.
  std::function<BrokerId(std::uint32_t)> home_override;

  // Publishers.
  std::vector<BrokerId> publisher_brokers = {6, 7, 10, 11};
  /// Seconds between publications per publisher; 0 disables publishing.
  double publish_interval = 1.0;

  /// Background pub/sub activity by *stationary* clients (the paper's
  /// conclusion: "unsubscriptions by non-mobile clients hardly affect the
  /// performance of the reconfiguration protocol"): every stationary client
  /// unsubscribes and re-subscribes (fresh incarnation) at this period.
  /// 0 disables churn.
  double background_churn_interval = 0.0;

  // Schedule.
  double duration = 200.0;
  /// Movements starting before this time are excluded from summaries (the
  /// paper ignores the join/setup phase).
  double warmup = 40.0;
  std::uint64_t seed = 1;

  // Observability. When `trace_path` is set the run records movement spans,
  // per-hop events and covering events, then flushes them as JSONL (joined
  // to message counts via per-movement "movement:stats" events). When
  // `metrics_path` is set the metrics registry snapshot (including per-link
  // message counters) is written alongside. `run_label` tags every record so
  // a bench sweep can append multiple runs into one file.
  std::string trace_path;
  std::string metrics_path;
  /// Windowed time-series sink (NDJSON, one object per window). Ticks run at
  /// broker.obs.timeseries_interval; defaults to trace_dir/timeseries.jsonl
  /// when a trace_dir is configured and the interval is positive.
  std::string timeseries_path;
  /// Stage-profiler sink: per-broker stage rows land in `profile_path`
  /// (NDJSON) and collapsed stacks in `profile_path + ".collapsed"`.
  /// Defaults to trace_dir/profile.ndjson when broker.obs.profile is on.
  std::string profile_path;
  std::string run_label;
  /// Append to existing files instead of truncating (multi-run sweeps).
  bool trace_append = false;

  /// Run the embedded movement-invariant auditor (obs/audit.h) over the
  /// finished run: trace + final routing snapshots + delivery accounting.
  /// Read the verdict via Scenario::audit_report(). Implies tracing (the
  /// auditor needs the movement spans), even without a trace_path sink.
  bool audit = false;
  /// Write one final obs::BrokerSnapshot JSONL line per broker here
  /// (honours trace_append / run_label like the other sinks).
  std::string snapshot_path;

  /// Run in insertion order at the end of the build: after the host, its
  /// engines and services exist and the services have started, before any
  /// client or publisher event. The load-balancing control plane
  /// (src/control) attaches here — it layers *above* the engines — and
  /// tests attach a FailureInjector or arm message faults (via s.net()).
  std::vector<std::function<void(Scenario&)>> post_build;
  /// Observes every finished movement (after the scenario's own
  /// bookkeeping). The balancer uses this to learn commit/abort outcomes.
  std::function<void(const MovementRecord&)> movement_observer;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Builds the system and runs the schedule until `cfg.duration`.
  void run();

  SimNetwork& net() { return *net_; }
  Stats& stats() { return net_->stats(); }
  const ScenarioConfig& config() const { return cfg_; }

  /// Client ids are 1000 + k for subscriber k, 1 + p for publisher p.
  static ClientId subscriber_id(std::uint32_t k) { return 1000 + k; }
  static ClientId publisher_id(std::uint32_t p) { return 1 + p; }

  // --- result series (the quantities the paper's figures plot) -------------

  /// Committed-movement latency over the steady-state window.
  Summary latency() const;
  /// Mean messages per committed movement in the window.
  double messages_per_movement() const;
  /// Committed movements in the window.
  std::uint64_t movements() const;
  /// All movement records (for scatter plots like Fig. 8).
  const std::vector<MovementRecord>& movement_records() const;

  // --- delivery audit --------------------------------------------------------

  struct Audit {
    std::uint64_t delivered = 0;
    std::uint64_t duplicates = 0;  // same publication twice to one client
    /// Matching publications never delivered to *stationary* subscribers
    /// (computed at the end of run()). Stationary clients are entitled to
    /// every match: any loss here is collateral damage from other clients'
    /// movements — the transient inconsistency of the traditional protocol.
    std::uint64_t stationary_losses = 0;
    /// Matching (stationary client, publication) pairs checked.
    std::uint64_t stationary_expected = 0;
    /// Matching publications never delivered to *moving* subscribers — the
    /// traditional protocol's hand-off window loses these; the
    /// reconfiguration protocol guarantees zero (Sec. 3.4 consistency).
    std::uint64_t mover_losses = 0;
    std::uint64_t mover_expected = 0;
  };
  const Audit& audit() const { return audit_; }

  /// Verdict of the embedded invariant auditor; empty unless cfg.audit.
  const obs::AuditReport& audit_report() const { return audit_report_; }

  /// The filter assigned to client k (for tests).
  Filter filter_of(std::uint32_t k) const;
  /// Whether client k is a mover.
  bool is_mover(std::uint32_t k) const;

 private:
  void build();
  void dump_observability();
  void schedule_joins();
  void schedule_publishers();
  void publish_tick(BrokerId b, ClientId id);
  void churn_tick(BrokerId b, ClientId id, Filter f);
  void schedule_move(std::uint32_t k, BrokerId from, BrokerId to,
                     double when);
  void on_movement(const MovementRecord& rec);
  void account_losses();
  const std::pair<BrokerId, BrokerId>& pair_of(std::uint32_t k) const;
  BrokerId other_end(std::uint32_t k, BrokerId at) const;

  void run_audit();

  ScenarioConfig cfg_;
  Overlay overlay_;
  std::unique_ptr<SimNetwork> net_;
  obs::Auditor auditor_;
  obs::AuditReport audit_report_;
  std::unordered_map<ClientId, std::uint32_t> mover_index_;
  Audit audit_;
  std::unordered_map<ClientId, std::unordered_set<PublicationId>> seen_;
  /// Clients with a committed movement: their background churn has ended.
  std::unordered_set<ClientId> moved_clients_;
  std::mt19937_64 rng_;
  std::uint32_t pub_seq_ = 0;
  /// Publications issued after this sequence number are audited for loss
  /// (earlier ones may legitimately race subscription propagation at join).
  std::uint32_t settle_seq_ = 0;
  std::vector<std::pair<Publication, SimTime>> published_;
};

}  // namespace tmps
