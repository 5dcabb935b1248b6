// The bookkeeping every broker host shares. A host (the discrete-event
// SimNetwork, the socket-based TcpTransport) moves messages between brokers
// and keeps time; everything it must *account* for lives here, once:
//
//   * the cause ledger — messages in flight per movement cause tag, and the
//     watchers behind RuntimeEnv::on_cause_drained. The traditional
//     protocol's commit and the auditor's quiescence check both rest on it;
//   * Stats — traffic per link/type/cause and the movement records behind
//     RuntimeEnv::movement_finished;
//   * the tracer, metrics registry and time-series ring the hosted brokers
//     are wired to (attach()).
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
// without it). Drain watchers and on_cause_drained's immediate call run
// after it is released, so they may send. What else a callback holds
// depends on the host:
//
//   * SimNetwork is single-threaded: timers, drain watchers and broker
//     handlers all run on the event loop.
//   * TcpTransport runs Broker::on_message and run_on ops under the
//     broker's state lock, and queues their outputs on the broker's links
//     before releasing it (per-link FIFO). Delivery sinks and movement
//     callbacks therefore run under that lock. Timer callbacks (schedule)
//     run on the timer thread and drain watchers on the reader thread that
//     retired the last message, both with no broker lock held: engine
//     timeouts and the traditional protocol are therefore not yet
//     thread-safe there.
//
// stats() hands out the live object unguarded: on a threaded host, read it
// only while the host is quiet (after drain() or stop()).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "pubsub/messages.h"
#include "sim/runtime_env.h"
#include "sim/stats.h"

namespace tmps {

class Broker;

class HostCore : public RuntimeEnv {
 public:
  HostCore(const HostCore&) = delete;
  HostCore& operator=(const HostCore&) = delete;

  Stats& stats() { return stats_; }

  /// Windowed time-series over this host's metrics registry.
  obs::TimeSeriesRing& timeseries() { return timeseries_; }

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

 protected:
  HostCore();

  /// Wires a hosted broker to this host's tracer, metrics and clock.
  void attach(Broker& broker);

  /// `msg` entered the link from -> to.
  void count_send(BrokerId from, BrokerId to, const Message& msg);

  /// A message tagged `cause` (kNoTxn for none) left the network; fires the
  /// cause's drain watchers when it was the last one in flight.
  void retire(TxnId cause);

 private:
  mutable std::mutex mu_;
  Stats stats_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::map<TxnId, std::uint64_t> outstanding_;
  std::map<TxnId, std::vector<std::function<void()>>> drain_watchers_;
  // Hosted brokers cache handles into these; a host's brokers are members
  // of the derived class, so they are destroyed first.
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::TimeSeriesRing timeseries_{&metrics_};
};

}  // namespace tmps
