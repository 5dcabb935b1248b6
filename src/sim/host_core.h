// What every broker host shares. A host (the discrete-event SimNetwork, the
// socket-based TcpTransport) moves messages between brokers and keeps time;
// everything else lives here, once:
//
//   * the hosted brokers 1..N of the overlay and, on each, its mobile
//     container (MobilityEngine, Sec. 4.1), wired to this host's tracer,
//     metrics, clock and send path, plus the services the BrokerConfig
//     enables: the anti-entropy RepairEngine and the SessionManager,
//     attached to the engine and (both on) to each other. The driver starts
//     them;
//   * a runtime per broker, the RuntimeEnv its engine and services see;
//   * run_on(), the one way to act at a broker from outside a message
//     handler: client operations, snapshots, timers, drain watchers;
//   * the cause ledger — messages in flight per movement cause tag, and the
//     watchers behind RuntimeEnv::on_cause_drained. The traditional
//     protocol's commit and the auditor's quiescence check both rest on it;
//   * Stats — traffic per link/type/cause and the movement records behind
//     RuntimeEnv::movement_finished;
//   * the tracer, metrics registry and time-series ring, with the tick loop
//     that drains the stage profilers into each window.
//
// Ledger contract: the host calls count_send() when a message enters a link
// and retire() when it leaves the network — processed at its destination
// (after the message's own outputs were counted, so a causal chain only
// reads as drained when it truly is) or lost. A lost message is sent and
// retired at once, so it never holds a drain open. Retiring a cause more
// often than it was sent is a host bug (asserted).
//
// Locking: one mutex guards the ledger and Stats' traffic and movement
// accounting (in_flight() is an atomic, so messages without a cause retire
// without it). Drain watchers run after it is released, so they may send.
// A broker's runtime runs its timers through run_on(b), and its drain
// watchers too when they fire from retire(); a cause that has already
// drained runs the watcher at once, inline, since the caller is at b. The
// host's own schedule and on_cause_drained run their callbacks at no
// broker. What run_on holds depends on the host:
//
//   * SimNetwork is single-threaded: run_on runs its op at once and hands
//     the outputs to the network; everything runs on the event loop.
//   * TcpTransport runs Broker::on_message and run_on ops under the
//     broker's state lock, queues their outputs on the broker's links
//     (per-link FIFO) and writes the sockets after releasing it. Delivery
//     sinks, movement callbacks, engine timeouts, service ticks and the
//     traditional protocol's drain-based commit all run under that lock.
//     transmit() only queues; retire() runs with no broker lock held.
//
// stats() hands out the live object unguarded: on a threaded host, read it
// only while the host is quiet (after drain() or stop()).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "broker/broker.h"
#include "core/mobility_engine.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "pubsub/messages.h"
#include "repair/repair_engine.h"
#include "session/session_manager.h"
#include "sim/runtime_env.h"
#include "sim/stats.h"

namespace tmps {

class HostCore : public RuntimeEnv {
 public:
  /// A client operation at one broker: it acts on the broker's engine and
  /// appends the messages to send to the outputs.
  using Op = std::function<void(MobilityEngine&, Broker::Outputs&)>;

  HostCore(const HostCore&) = delete;
  HostCore& operator=(const HostCore&) = delete;
  ~HostCore() override;

  const Overlay& overlay() const { return *overlay_; }
  Broker& broker(BrokerId b);
  MobilityEngine& engine(BrokerId b);
  /// Broker b's repair engine, or nullptr when BrokerConfig::repair is off.
  repair::RepairEngine* repair(BrokerId b);
  /// Broker b's session manager, or nullptr when BrokerConfig::session is
  /// off.
  session::SessionManager* sessions(BrokerId b);

  /// Runs `op` at broker `b` and sends its outputs, ordered with the
  /// broker's message handling (see Locking above).
  virtual void run_on(BrokerId b, const Op& op) = 0;

  Stats& stats() { return stats_; }

  /// Windowed time-series over this host's metrics registry.
  obs::TimeSeriesRing& timeseries() { return timeseries_; }

  /// Ticks timeseries() now (the first call's tick is the baseline window)
  /// and again every `interval` seconds while the next tick falls before
  /// `until`. Each tick drains the stage profilers first, so their
  /// histograms land in the same windows.
  void tick_timeseries(double interval, double until);

  /// Drains every broker's stage-profiler slabs into the metrics registry
  /// (no-op when profiling is off). Called before any metrics export.
  void flush_profilers();

  /// Messages still in flight for a cause tag.
  std::uint64_t outstanding(TxnId cause) const;

  /// Every cause with messages still in flight (entries vanish when a cause
  /// drains, so leftovers are genuinely outstanding). The auditor's
  /// quiescence check reads this after the run.
  std::map<TxnId, std::uint64_t> outstanding_causes() const;

  /// Messages (any cause, or none) sent and not yet retired.
  std::uint64_t in_flight() const { return in_flight_.load(); }

  // --- RuntimeEnv (the host supplies now() and schedule()) ---
  void movement_finished(MovementRecord rec) override;
  void on_cause_drained(TxnId cause, std::function<void()> fn) override;
  obs::Tracer* tracer() override { return &tracer_; }
  obs::MetricsRegistry* metrics() override { return &metrics_; }
  /// One snapshot per broker, each taken through run_on.
  void snapshot_routing(std::vector<obs::BrokerSnapshot>& out,
                        bool final_snapshot = false) override;

 protected:
  /// Builds broker b, its engine and its enabled services for b = 1..N of
  /// `overlay`.
  HostCore(const Overlay& overlay, const BrokerConfig& broker_cfg,
           const MobilityConfig& mobility_cfg);

  /// The host's send path: hands `outputs`, produced at broker `from`, to
  /// the network. Every engine's transmit hook ends here.
  virtual void transmit(BrokerId from, Broker::Outputs outputs) = 0;

  /// Broker `b`'s routing state at now().
  obs::BrokerSnapshot snapshot(BrokerId b);

  /// `msg` entered the link from -> to.
  void count_send(BrokerId from, BrokerId to, const Message& msg);

  /// A message tagged `cause` (kNoTxn for none) left the network; fires the
  /// cause's drain watchers when it was the last one in flight.
  void retire(TxnId cause);

 private:
  class BrokerRuntime;

  /// Runs `fn` once `cause` drains: at `owner` through run_on when it is a
  /// broker, else plainly. An already drained cause runs `fn` now, inline.
  void watch_drain(BrokerId owner, TxnId cause, std::function<void()> fn);

  mutable std::mutex mu_;
  Stats stats_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::map<TxnId, std::uint64_t> outstanding_;
  std::map<TxnId, std::vector<std::function<void()>>> drain_watchers_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::TimeSeriesRing timeseries_{&metrics_};
  // The hosted objects cache handles into the tracer and metrics above, so
  // they are declared after them and destroyed first (services before their
  // engines, engines before their brokers and runtimes). Indexed by
  // BrokerId; slot 0 is empty.
  const Overlay* overlay_;
  std::vector<std::unique_ptr<BrokerRuntime>> runtimes_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::vector<std::unique_ptr<MobilityEngine>> engines_;
  std::vector<std::unique_ptr<repair::RepairEngine>> repairs_;
  std::vector<std::unique_ptr<session::SessionManager>> sessions_;
};

}  // namespace tmps
