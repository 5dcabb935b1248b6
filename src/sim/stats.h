// Metrics collected by the simulation harness: the three quantities the
// paper's evaluation reports (Sec. 5) plus supporting breakdowns.
//
//   * network traffic — messages transmitted per overlay link, total and
//     attributed to individual movement transactions via the cause tag;
//   * movement duration — wall-clock (simulated) time per movement;
//   * movement throughput — completed movements over the experiment window.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "obs/log_buckets.h"
#include "sim/event_queue.h"

namespace tmps {

/// Streaming summary of a series (latencies etc.). Alongside the moment
/// statistics it maintains fixed log-bucket counts (obs/log_buckets.h), so
/// tail quantiles are available without storing samples — bucket-resolution
/// approximations (~±9% relative error), which is what the stability
/// comparisons in the paper's figures need.
class Summary {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;

  /// Bucket-interpolated quantile of everything added so far, clamped to
  /// the observed [min, max] range. q in [0, 1]; 0 for an empty summary.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0, sumsq_ = 0;
  double min_ = 0, max_ = 0;
  std::array<std::uint64_t, obs::kNumBuckets> buckets_{};
};

/// Per-broker load distribution at a glance: the max/mean ratio is the
/// imbalance figure the load-balancing control plane (src/control) drives
/// down, and what the skewed-placement tests assert on. `mean` averages
/// over all `brokers` brokers, including idle ones.
struct LoadSkew {
  double max = 0;
  double mean = 0;
  BrokerId argmax = kNoBroker;
  /// max/mean; 1.0 for a perfectly even (or empty) distribution.
  double ratio() const { return mean > 0 ? max / mean : 1.0; }
};

/// Skew of an absolute per-broker load map over brokers 1..`brokers`
/// (brokers absent from the map count as zero load).
LoadSkew load_skew(const std::map<BrokerId, std::uint64_t>& loads,
                   std::uint32_t brokers);

struct MovementRecord {
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  SimTime start = 0;
  SimTime end = 0;
  bool committed = false;
  /// Messages attributed to this movement (filled from cause-tag counts).
  std::uint64_t messages = 0;

  double duration() const { return end - start; }
};

class Stats {
 public:
  // --- network traffic ---
  void count_message(BrokerId from, BrokerId to, std::string_view type,
                     TxnId cause);

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t messages_by_type(const std::string& type) const;
  std::uint64_t messages_for_cause(TxnId cause) const;
  const std::map<std::pair<BrokerId, BrokerId>, std::uint64_t>& link_counts()
      const {
    return link_counts_;
  }

  /// Forgets traffic accounted so far (used to exclude the setup phase, as
  /// the paper does: "we ignore this setup phase in subsequent results").
  void reset_traffic();

  // --- movements ---
  void record_movement(MovementRecord rec);
  const std::vector<MovementRecord>& movements() const { return movements_; }
  std::vector<MovementRecord>& movements() { return movements_; }

  /// Summary over committed movements that *started* in [from, to).
  Summary latency_summary(SimTime from = 0,
                          SimTime to = 1e300) const;
  std::uint64_t committed_movements(SimTime from = 0, SimTime to = 1e300) const;
  /// Mean messages per committed movement in the window.
  double messages_per_movement(SimTime from = 0, SimTime to = 1e300) const;

  // --- per-broker load (control-plane + skew assertions) ---

  /// One message processed at broker `b`; `publication` marks a matching
  /// pass (PublishMsg) as opposed to routing/control work.
  void count_broker_message(BrokerId b, bool publication);
  /// One local delivery at broker `b` to `client` (the fan-out work that
  /// concentrates where clients concentrate).
  void count_delivery(BrokerId b, ClientId client);
  std::uint64_t deliveries() const { return deliveries_; }

  const std::map<BrokerId, std::uint64_t>& broker_messages() const {
    return broker_msgs_;
  }
  /// Publication load per broker: publications processed + local
  /// deliveries. The quantity whose max/mean ratio the balancer minimizes.
  std::map<BrokerId, std::uint64_t> broker_pub_loads() const;
  /// Local delivery load per broker — the client-serving fan-out work that
  /// migration relocates (transit forwarding is topology-bound and stays).
  const std::map<BrokerId, std::uint64_t>& broker_delivery_loads() const {
    return broker_deliveries_;
  }
  /// load_skew over broker_pub_loads (brokers 1..`brokers`).
  LoadSkew pub_load_skew(std::uint32_t brokers) const;

 private:
  std::uint64_t total_messages_ = 0;
  std::uint64_t deliveries_ = 0;
  std::map<BrokerId, std::uint64_t> broker_msgs_;
  std::map<BrokerId, std::uint64_t> broker_pubs_;
  std::map<BrokerId, std::uint64_t> broker_deliveries_;
  std::map<std::pair<BrokerId, BrokerId>, std::uint64_t> link_counts_;
  std::map<std::string, std::uint64_t, std::less<>> type_counts_;
  std::unordered_map<TxnId, std::uint64_t> cause_counts_;
  std::vector<MovementRecord> movements_;
  /// txn -> index into movements_, so messages attributed to a movement
  /// *after* its record was captured (covering-induced (un)subscriptions
  /// still cascading at brokers off the movement path) reach the record.
  std::unordered_map<TxnId, std::size_t> movement_index_;
};

}  // namespace tmps
