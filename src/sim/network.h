// The simulated broker network: an open queueing model over the overlay.
//
// Every link is a pair of directed FIFO channels with a serialization time
// (per-message occupancy) and a propagation delay; every broker is a single
// server with a per-message processing time. Message bursts therefore queue
// and produce the congestion dynamics behind the paper's latency results —
// this substitutes for the paper's 1.86 GHz cluster (LAN profile) and
// PlanetLab (WAN profile) testbeds.
#pragma once

#include <functional>
#include <map>
#include <random>
#include <vector>

#include "sim/event_queue.h"
#include "sim/host_core.h"

namespace tmps {

struct NetworkProfile {
  /// One-way propagation delay per link (seconds).
  double link_delay = 0.002;
  /// Per-message serialization/occupancy time on a link.
  double link_service = 0.0001;
  /// Broker processing time per *publication* (matching pass; counting
  /// algorithms keep this fast).
  double pub_proc = 0.002;
  /// Broker processing time per *(un)subscription / (un)advertisement*:
  /// routing these requires covering checks — pairwise filter-containment
  /// tests against the tables — the expensive operation in PADRES-era
  /// brokers and the cost the paper's covering pathology multiplies.
  double sub_proc = 0.008;
  /// Processing time for movement-protocol (control) messages: relayed or
  /// touching only the moving client's own entries.
  double control_proc = 0.001;
  /// Mean of exponential per-message extra delay (0 = deterministic).
  double delay_jitter = 0.0;
  /// Heterogeneous per-link base delays (log-normal around link_delay), as
  /// on PlanetLab.
  bool heterogeneous_links = false;
  /// Probability that a link delivers a message twice (at-least-once
  /// delivery, e.g. retransmission after a lost ack). The protocols must be
  /// idempotent against this; robustness tests turn it on.
  double duplicate_prob = 0.0;
  std::uint64_t seed = 42;

  /// Cluster testbed: ~1 ms links, fast brokers, no jitter.
  static NetworkProfile lan();
  /// PlanetLab-like WAN: tens-of-ms heterogeneous links, slower brokers,
  /// heavy jitter.
  static NetworkProfile planetlab();
};

/// What a fault hook does to one message about to enter a link. Default:
/// deliver normally.
struct FaultAction {
  /// The message never arrives (a genuine loss — unlike pause_*, which only
  /// delays). It is retired as soon as it is counted, so causal drains still
  /// terminate; the protocol above must cope or time out.
  bool drop = false;
  /// A second copy arrives after `duplicate_delay` extra seconds, bypassing
  /// the link's FIFO clamp (a late retransmission, possibly reordered).
  bool duplicate = false;
  double duplicate_delay = 0;
  /// Extra latency on the message itself; a delayed message also bypasses
  /// the FIFO clamp, so later traffic may overtake it.
  double extra_delay = 0;
};

class SimNetwork final : public HostCore {
 public:
  SimNetwork(const Overlay& overlay, BrokerConfig broker_cfg = {},
             NetworkProfile profile = NetworkProfile::lan(),
             MobilityConfig mobility_cfg = {});
  ~SimNetwork() override;

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  EventQueue& events() { return events_; }

  // --- RuntimeEnv (the rest is HostCore's; Scenario ticks timeseries()
  // every cfg.obs.timeseries_interval) ---
  SimTime now() const override { return events_.now(); }
  void schedule(double delay, std::function<void()> fn) override;

  /// Runs `op` at broker `b` now and transmits its outputs.
  void run_on(BrokerId b, const Op& op) override;

  /// Hands a broker's outputs to the network at the current time.
  void transmit(BrokerId from, Broker::Outputs outputs) override;

  // --- failure injection (faults are masked per Sec. 3.5: messages are
  // delayed, never lost) ---
  void pause_broker(BrokerId b, double duration);
  void pause_link(BrokerId a, BrokerId b, double duration);

  /// Unmasked message faults (drop/duplicate/delay): consulted for every
  /// message entering a link. Used by FailureInjector to violate the
  /// paper's fault model on purpose so the auditor has something to catch.
  using FaultHook =
      std::function<FaultAction(BrokerId from, BrokerId to, const Message&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  void run() { events_.run(); }
  void run_until(SimTime t) { events_.run_until(t); }

  /// Cumulative processing (busy) time of a broker — utilization evidence
  /// for the congestion analysis (busy / now = utilization).
  double broker_busy_seconds(BrokerId b) const;

  /// Seconds of processing backlog queued at a broker right now (0 when
  /// idle) — the queue-depth signal the load estimator samples.
  double broker_backlog_seconds(BrokerId b) const;

 private:
  struct LinkState {
    double base_delay = 0;
    double next_free = 0;
    double last_arrival = 0;
    double paused_until = 0;
  };
  struct BrokerState {
    double next_free = 0;
    double paused_until = 0;
    double busy_seconds = 0;
  };

  LinkState& link(BrokerId from, BrokerId to);
  void send_one(BrokerId from, BrokerId to, Message msg);
  void arrive(BrokerId from, BrokerId to, Message msg);
  void process(BrokerId from, BrokerId to, Message msg);
  double jitter();

  NetworkProfile profile_;
  EventQueue events_;
  obs::Counter* msgs_sent_ = nullptr;
  obs::Counter* msgs_dropped_ = nullptr;
  obs::Histogram* link_wait_ = nullptr;
  obs::Histogram* broker_wait_ = nullptr;
  FaultHook fault_hook_;
  std::mt19937_64 rng_;
  std::vector<BrokerState> brokers_;  // index by BrokerId (1-based)
  std::map<std::pair<BrokerId, BrokerId>, LinkState> links_;
};

}  // namespace tmps
