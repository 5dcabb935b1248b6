// Runtime services the mobility protocols need from their host — a clock,
// timers, movement metrics, and causal-drain notification. Implemented by
// the discrete-event SimNetwork (benchmarks) and the TCP transport (live
// runs), both through HostCore (sim/host_core.h), keeping the protocol code
// host-agnostic.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"

namespace tmps {

class RuntimeEnv {
 public:
  virtual ~RuntimeEnv() = default;

  virtual SimTime now() const = 0;

  /// Runs `fn` after `delay` seconds (protocol timeouts, retries).
  virtual void schedule(double delay, std::function<void()> fn) = 0;

  /// Reports a finished (committed or aborted) movement transaction.
  virtual void movement_finished(MovementRecord rec) = 0;

  /// Invokes `fn` once no message tagged with `cause` remains in flight.
  /// Used by the traditional protocol to detect that a movement's induced
  /// (un)subscription propagation — including covering cascades — has
  /// quiesced. Fires immediately if the cause is already drained.
  virtual void on_cause_drained(TxnId cause, std::function<void()> fn) = 0;

  /// Movement-transaction tracer of this host; nullptr when the host does
  /// not provide one. Guarded by the TMPS_* trace macros at every use site.
  virtual obs::Tracer* tracer() { return nullptr; }

  /// Metrics registry of this host; nullptr when the host does not provide
  /// one. Instrumented components cache the metric handles they register.
  virtual obs::MetricsRegistry* metrics() { return nullptr; }

  /// Appends one routing snapshot per hosted broker (obs/introspect.h).
  /// `final_snapshot` marks an end-of-run capture, which arms the auditor's
  /// orphan/quiescence checks. Default: the host has no snapshot support.
  virtual void snapshot_routing(std::vector<obs::BrokerSnapshot>& out,
                                bool final_snapshot = false) {
    (void)out;
    (void)final_snapshot;
  }
};

}  // namespace tmps
