#include "sim/stats.h"

#include <algorithm>
#include <cmath>

namespace tmps {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  sum_ += x;
  sumsq_ += x * x;
  ++buckets_[obs::bucket_index(x)];
}

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  const double v = sumsq_ / static_cast<double>(n_) - m * m;
  return v > 0 ? v : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::percentile(double q) const {
  if (n_ == 0) return 0.0;
  const double est = obs::percentile_from_counts(buckets_.data(), n_, q);
  // Bucket interpolation cannot be tighter than the data itself.
  return std::min(std::max(est, min_), max_);
}

void Stats::count_message(BrokerId from, BrokerId to, std::string_view type,
                          TxnId cause) {
  ++total_messages_;
  ++link_counts_[{from, to}];
  auto t = type_counts_.find(type);
  if (t == type_counts_.end()) t = type_counts_.emplace(type, 0).first;
  ++t->second;
  if (cause != kNoTxn) {
    ++cause_counts_[cause];
    // Keep the movement record's attribution live: covering cascades (and
    // the tail of the hop-by-hop path) can still emit messages for this
    // transaction after the coordinator captured the record.
    auto it = movement_index_.find(cause);
    if (it != movement_index_.end()) ++movements_[it->second].messages;
  }
}

std::uint64_t Stats::messages_by_type(const std::string& type) const {
  auto it = type_counts_.find(type);
  return it == type_counts_.end() ? 0 : it->second;
}

std::uint64_t Stats::messages_for_cause(TxnId cause) const {
  auto it = cause_counts_.find(cause);
  return it == cause_counts_.end() ? 0 : it->second;
}

void Stats::reset_traffic() {
  total_messages_ = 0;
  link_counts_.clear();
  type_counts_.clear();
  cause_counts_.clear();
  deliveries_ = 0;
  broker_msgs_.clear();
  broker_pubs_.clear();
  broker_deliveries_.clear();
}

void Stats::count_broker_message(BrokerId b, bool publication) {
  ++broker_msgs_[b];
  if (publication) ++broker_pubs_[b];
}

void Stats::count_delivery(BrokerId b, ClientId client) {
  (void)client;
  ++deliveries_;
  ++broker_deliveries_[b];
}

std::map<BrokerId, std::uint64_t> Stats::broker_pub_loads() const {
  std::map<BrokerId, std::uint64_t> loads = broker_pubs_;
  for (const auto& [b, n] : broker_deliveries_) loads[b] += n;
  return loads;
}

LoadSkew load_skew(const std::map<BrokerId, std::uint64_t>& loads,
                   std::uint32_t brokers) {
  LoadSkew s;
  if (brokers == 0) return s;
  std::uint64_t total = 0;
  for (const auto& [b, n] : loads) {
    total += n;
    if (static_cast<double>(n) > s.max) {
      s.max = static_cast<double>(n);
      s.argmax = b;
    }
  }
  s.mean = static_cast<double>(total) / static_cast<double>(brokers);
  return s;
}

void Stats::record_movement(MovementRecord rec) {
  rec.messages = messages_for_cause(rec.txn);
  if (rec.txn != kNoTxn) {
    movement_index_.emplace(rec.txn, movements_.size());
  }
  movements_.push_back(std::move(rec));
}

Summary Stats::latency_summary(SimTime from, SimTime to) const {
  Summary s;
  for (const auto& m : movements_) {
    if (m.committed && m.start >= from && m.start < to) s.add(m.duration());
  }
  return s;
}

std::uint64_t Stats::committed_movements(SimTime from, SimTime to) const {
  std::uint64_t n = 0;
  for (const auto& m : movements_) {
    if (m.committed && m.start >= from && m.start < to) ++n;
  }
  return n;
}

double Stats::messages_per_movement(SimTime from, SimTime to) const {
  std::uint64_t msgs = 0, n = 0;
  for (const auto& m : movements_) {
    if (m.committed && m.start >= from && m.start < to) {
      msgs += messages_for_cause(m.txn);
      ++n;
    }
  }
  return n ? static_cast<double>(msgs) / static_cast<double>(n) : 0.0;
}

}  // namespace tmps
