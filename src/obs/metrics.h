// Lock-cheap metrics primitives and the per-process registry brokers,
// transports and the mobility engine register into.
//
// Registration (name + labels -> metric object) takes a mutex and returns a
// stable reference; instrumented code caches that reference once and then
// records through plain atomic operations — no lock, no allocation, no map
// lookup on the hot path. Histograms use the fixed log-bucketing of
// log_buckets.h so p50/p95/p99 fall out of the bucket counts without storing
// samples.
//
// Everything is safe for concurrent recording (the TCP transport runs a
// reader thread per link); `write_jsonl` takes a consistent-enough snapshot for
// reporting (counters may be mid-burst, which is fine for monitoring data).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/log_buckets.h"

namespace tmps::obs {

/// Label set attached to a metric, e.g. {{"broker", "3"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    // CAS loop instead of fetch_add(double): portable across libstdc++
    // versions and clean under TSan.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over the fixed log-bucket grid. `observe` is wait-free: one
/// bucket increment plus count/sum updates.
class Histogram {
 public:
  void observe(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  std::uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Bulk-merge pre-bucketed observations (e.g. a profiler slab flush):
  /// adds `n` to bucket `i` for every (i, n) pair, bumps the count by the
  /// pair total and the sum by `sum_delta`. Same relaxed-atomic discipline
  /// as observe(), so merging concurrently with recording is safe.
  void merge(const std::vector<std::pair<int, std::uint64_t>>& bucket_deltas,
             double sum_delta);

  /// Bucket-interpolated quantile (see log_buckets.h for error bounds).
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { Counter, Gauge, Histogram };

/// Point-in-time copy of one metric, decoupled from the registry lock so
/// formatting/serving can happen without blocking hot-path registration.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;  ///< counter value, or histogram count
  double value = 0.0;       ///< gauge value, or histogram sum
  /// Non-empty histogram buckets as (bucket index, count), ascending.
  std::vector<std::pair<int, std::uint64_t>> buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime; repeated calls with equal (name, labels) return the same
  /// object, so concurrent registration from several brokers is safe.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  /// Copies every registered metric (name/labels + current atomic values)
  /// under the lock and returns; callers format, diff or serve the samples
  /// without blocking registration. Samples arrive in registry (name, label)
  /// order.
  std::vector<MetricSample> snapshot() const;

  /// One JSON object per metric. `run` labels the emitting experiment so a
  /// multi-run bench can append into one file.
  void write_jsonl(std::ostream& os, std::string_view run = {}) const;

  /// Prometheus text exposition format (the `/metrics` endpoint). Counters
  /// and gauges emit one sample; histograms emit cumulative `_bucket{le=}`
  /// samples over the log-bucket grid plus `_sum`/`_count`.
  void write_prometheus(std::ostream& os) const;

  /// Snapshot of a counter's value; 0 when never registered (test helper).
  std::uint64_t counter_value(std::string_view name, Labels labels = {}) const;

  std::size_t size() const;

 private:
  using Kind = MetricKind;
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static std::string key_of(std::string_view name, const Labels& labels);
  Entry& find_or_create(std::string_view name, Labels labels, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Bucket-interpolated quantile over a histogram MetricSample (0 for
/// counters/gauges/empty histograms).
double sample_percentile(const MetricSample& s, double q);

}  // namespace tmps::obs
