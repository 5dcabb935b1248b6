// The one per-broker options struct: routing optimizations, the HTTP admin
// plane and the observability toggles, consolidated from the previously
// scattered BrokerConfig / AdminConfig / TMPS_* env parsing. Hosts
// (sim/network, transports, Scenario) take a single BrokerConfig and thread
// the relevant sections down.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace tmps {

struct BrokerConfig {
  /// Enable the subscription-covering optimization (per-link quench/retract).
  bool subscription_covering = true;
  /// Enable the advertisement-covering optimization.
  bool advertisement_covering = true;

  /// Per-broker HTTP admin endpoints (/healthz, /metrics, /routing). Off by
  /// default; hosts opt in. Loopback only.
  struct Admin {
    bool enabled = false;
    /// Broker b listens on base_port + b; 0 = OS-assigned ephemeral ports
    /// (read them back via admin_port_of).
    std::uint16_t base_port = 0;
  };
  Admin admin;

  /// Mobility-driven load-balancing control plane (src/control). Like Admin
  /// this is a host-level section: the host builds one Balancer over its
  /// mobility engines when `enabled`. All times are in host seconds.
  struct Control {
    bool enabled = false;
    /// Load-sampling / planning period of the control loop.
    double sample_interval = 1.0;
    /// First tick fires this long after start() (lets joins settle).
    double start_delay = 0.0;
    /// EWMA smoothing factor for the load signals (1 = raw samples).
    double ewma_alpha = 0.3;
    /// Hysteresis band on the max/mean load ratio: balancing engages at or
    /// above `imbalance_high` and disengages at or below `imbalance_low`.
    double imbalance_high = 1.5;
    double imbalance_low = 1.15;
    /// A client that completed a movement may not be selected again for this
    /// long (anti-oscillation, with the hysteresis band).
    double client_cooldown = 30.0;
    /// Hard per-client migration budget per run; 0 = unlimited.
    std::size_t max_moves_per_client = 2;
    /// Migration pairs selected per planning cycle.
    std::size_t max_moves_per_cycle = 4;
    /// Target-selection penalty per overlay hop between source and target,
    /// in units of mean load (prefers short movement paths).
    double path_penalty = 0.05;
    /// Load-score weights: score = delivery_weight * delivery_rate
    /// + pub_weight * transit_rate + msg_weight * msg_rate
    /// + table_weight * (PRT+SRT size) + queue_weight * backlog_seconds.
    /// Deliveries dominate by default: local fan-out is the load client
    /// migration actually relocates, while publication transit through
    /// overlay hubs is topology-bound and discounted.
    double delivery_weight = 1.0;
    double pub_weight = 0.25;
    double msg_weight = 0.25;
    double table_weight = 0.0;
    double queue_weight = 50.0;
  };
  Control control;

  /// Anti-entropy repair loop (src/repair): each broker periodically sweeps
  /// its routing/transaction state for invariants the movement protocol says
  /// should hold, exchanges forwarding digests with its overlay neighbours,
  /// and emits corrective routing ops. Host-level section like Control: the
  /// host builds one RepairEngine per broker when `enabled`. Times are in
  /// host seconds.
  struct Repair {
    bool enabled = false;
    /// Period of the local invariant sweep (and digest exchange).
    double sweep_interval = 2.0;
    /// First sweep fires this long after start() (lets joins settle).
    double start_delay = 0.0;
    /// Shadow/parked transaction state younger than this is considered
    /// legitimately in flight and left alone. Must comfortably exceed the
    /// longest healthy movement hand-off.
    double stale_after = 5.0;
    /// Destructive repairs (orphan retraction) only fire after the suspicion
    /// persisted this many consecutive sweeps; additive repairs (re-issuing
    /// a missing forward) are idempotent and fire immediately.
    std::uint32_t confirm_rounds = 2;
  };
  Repair repair;

  /// Edge-client session layer (src/session): durable sessions with
  /// resumption tokens, disconnected-operation buffering and connectivity-
  /// triggered mobility. Host-level section like Repair: the host builds one
  /// SessionManager per broker when `enabled`. Times are in host seconds.
  struct Session {
    bool enabled = false;
    /// Expected client heartbeat cadence; a session missing
    /// `miss_factor` consecutive beats is treated as disconnected.
    /// 0 disables implicit disconnect detection.
    double heartbeat_interval = 5.0;
    double miss_factor = 3.0;
    /// Grace window after a disconnect before the session expires, fires its
    /// last-will and is garbage-collected.
    double grace = 30.0;
    /// Cap on the per-session disconnected-operation buffer (notifications;
    /// zero means unlimited). The byte cap is fixed at 256 KiB of encoded
    /// wire size, with no age cap.
    std::size_t buffer_max_count = 1024;
    /// Resume at a broker other than the session's home initiates a movement
    /// transaction toward the new broker (connectivity-triggered mobility).
    /// When the movement is refused (or not attempted), the home broker
    /// resumes the stub and forwards deliveries to the broker the client
    /// reattached to.
    bool move_on_resume = true;
    /// Cadence of the session timer sweep (liveness, grace).
    double tick_interval = 1.0;
    /// First tick fires this long after start().
    double start_delay = 0.0;
  };
  Session session;

  /// Observability sinks and checks, settable programmatically or from the
  /// environment via from_env().
  struct Obs {
    /// Record movement spans/events (implied by a non-empty trace_dir).
    bool tracing = false;
    /// Run the embedded movement-invariant auditor over every scenario.
    bool audit = false;
    /// Directory for trace.jsonl / metrics.jsonl / snapshots.jsonl; empty =
    /// no file sinks.
    std::string trace_dir;
    /// Stamp publications with a ProvenanceTag at their origin broker and
    /// observe end-to-end delivery latency histograms. Cheap (one hash +
    /// clock read per publication), so on by default.
    bool pub_provenance = true;
    /// 1-in-N deterministic sampling of per-hop publication trace events
    /// (pub:origin / pub:hop / pub:deliver); 0 = never, 1 = every
    /// publication. Events additionally require the tracer to be enabled.
    std::uint32_t pub_trace_rate = 0;
    /// Per-broker flight-recorder ring size (last-N protocol+data events,
    /// recorded regardless of sampling); 0 disables the recorder.
    std::size_t flight_capacity = 256;
    /// Cadence of windowed time-series snapshots taken by the host (GET
    /// /timeseries, timeseries.jsonl); 0 disables ticking.
    double timeseries_interval = 0.0;
    /// Publish-path stage profiler (obs/profiler.h). Off by default: the
    /// broker only constructs a StageProfiler when set, so the disabled
    /// cost is a null check per probe site.
    bool profile = false;
    /// 1-in-N root-probe sampling rate for the profiler (rounded up to a
    /// power of two; 1 = time every publish). 16 keeps the measured
    /// publish-path overhead under the 3% gate.
    std::uint32_t profile_rate = 16;
  };
  Obs obs;

  /// Layers the TMPS_TRACE / TMPS_AUDIT / TMPS_PUB_TRACE_RATE /
  /// TMPS_PROFILE environment toggles on top of `base`: TMPS_TRACE="1" traces into the working
  /// directory, any other non-empty value is used as the output directory;
  /// TMPS_AUDIT enables the auditor; TMPS_PUB_TRACE_RATE=N samples 1-in-N
  /// publications for per-hop provenance events; TMPS_REPAIR enables the
  /// anti-entropy repair loop; TMPS_SESSION enables the edge-client session
  /// layer.
  static BrokerConfig from_env(BrokerConfig base);
  static BrokerConfig from_env() { return from_env(BrokerConfig{}); }
};

inline BrokerConfig BrokerConfig::from_env(BrokerConfig base) {
  const auto set = [](const char* name) {
    const char* v = std::getenv(name);
    return v && *v && std::string(v) != "0";
  };
  if (set("TMPS_AUDIT")) base.obs.audit = true;
  if (set("TMPS_BALANCE")) base.control.enabled = true;
  if (set("TMPS_REPAIR")) base.repair.enabled = true;
  if (set("TMPS_SESSION")) base.session.enabled = true;
  if (const char* trace = std::getenv("TMPS_TRACE");
      trace && *trace && std::string(trace) != "0") {
    base.obs.tracing = true;
    base.obs.trace_dir = std::string(trace) == "1" ? "." : trace;
  }
  if (const char* rate = std::getenv("TMPS_PUB_TRACE_RATE"); rate && *rate) {
    base.obs.pub_trace_rate =
        static_cast<std::uint32_t>(std::strtoul(rate, nullptr, 10));
  }
  // TMPS_PROFILE=1 enables the stage profiler at the default sampling rate;
  // any other number is used as the 1-in-N rate (TMPS_PROFILE=4 -> 1-in-4).
  if (const char* prof = std::getenv("TMPS_PROFILE");
      prof && *prof && std::string(prof) != "0") {
    base.obs.profile = true;
    if (const auto rate = std::strtoul(prof, nullptr, 10); rate > 1) {
      base.obs.profile_rate = static_cast<std::uint32_t>(rate);
    }
  }
  return base;
}

/// The control-plane options travel with BrokerConfig so hosts thread one
/// struct; src/control consumes this section.
using ControlConfig = BrokerConfig::Control;

/// The repair-loop options travel the same way; src/repair consumes this
/// section.
using RepairConfig = BrokerConfig::Repair;

/// The session-layer options travel the same way; src/session consumes this
/// section.
using SessionConfig = BrokerConfig::Session;

}  // namespace tmps
