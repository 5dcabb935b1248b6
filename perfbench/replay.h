// Single-thread replay host for the traced run. The TCP host's transit hops
// run on its reader threads, out of the benchmark's reach; the replay
// drives the same Broker and MobilityEngine code on one thread, passing
// every inter-broker message through encode_message / decode_message as
// the TCP host does, so each hop's codec, broker and matching cost can be
// timed from outside.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mobility_engine.h"
#include "routing/overlay.h"
#include "sim/runtime_env.h"
#include "inputs.h"
#include "spans.h"

namespace perfbench {

class ReplayHost final : public tmps::RuntimeEnv {
 public:

  ReplayHost(const tmps::Overlay& overlay, const tmps::BrokerConfig& cfg,
             SpanLog& spans);
  ReplayHost(const ReplayHost&) = delete;
  ReplayHost& operator=(const ReplayHost&) = delete;

  tmps::MobilityEngine& engine(tmps::BrokerId b) { return *engines_[b]; }

  /// Runs a client operation `op(engine, outputs)` at broker `b`, timed as
  /// `layer` under `key` (read after the op returns, so the op may fill it
  /// in), and queues its messages (encoded).
  template <typename Op>
  void run_on(tmps::BrokerId b, Layer layer, const std::uint64_t& key,
              Op&& op) {
    tmps::Broker::Outputs out;
    const std::int64_t t0 = now_ns();
    op(*engines_[b], out);
    spans_->add(layer, static_cast<std::uint8_t>(b), key, t0, now_ns());
    send(b, out);
    const std::int64_t t1 = now_ns();
    out.clear();
    spans_->add(Layer::kRelease, static_cast<std::uint8_t>(b), key, t1,
                now_ns());
  }
  /// Times RoutingTables::match of `pub` on broker `b`'s table.
  void match_at(tmps::BrokerId b, const tmps::Publication& pub);
  /// Processes up to `budget` queued messages, FIFO.
  void pump(std::size_t budget);
  void pump_all() { pump(static_cast<std::size_t>(-1)); }
  bool idle() const { return queue_.empty(); }
  /// Frames that failed to decode (must stay 0).
  std::uint64_t decode_failures() const { return decode_failures_; }

  // RuntimeEnv. Timers never fire: every protocol timeout is off. Only the
  // traditional protocol waits for a cause to drain, and the benchmark runs
  // reconfiguration, so no cause is ever tracked.
  tmps::SimTime now() const override;
  void schedule(double delay, std::function<void()> fn) override;
  void movement_finished(tmps::MovementRecord rec) override;
  void on_cause_drained(tmps::TxnId cause, std::function<void()> fn) override;
  tmps::obs::Tracer* tracer() override { return &tracer_; }
  tmps::obs::MetricsRegistry* metrics() override { return &metrics_; }

 private:
  struct Frame {
    tmps::BrokerId from = tmps::kNoBroker;
    tmps::BrokerId to = tmps::kNoBroker;
    std::string bytes;
  };

  /// Encodes `out` and queues the frames.
  void send(tmps::BrokerId from, tmps::Broker::Outputs& out);

  const tmps::Overlay* overlay_;
  SpanLog* spans_;
  // Declared before the brokers, which cache handles into them (as on the
  // TCP host: provenance stamps and delivery histograms stay on).
  tmps::obs::Tracer tracer_;
  tmps::obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<tmps::Broker>> brokers_;
  std::vector<std::unique_ptr<tmps::MobilityEngine>> engines_;
  std::deque<Frame> queue_;
  std::uint64_t decode_failures_ = 0;
  std::int64_t epoch_ns_ = 0;
};

/// The traced run's replay pass: the same generated inputs as the TCP run
/// (a prefix of the open-loop, paced and closed-loop phases, sized by the
/// workload record; the unpaced phase repeats the paced one's messages),
/// issued in order on one thread. Queued messages are pumped a few at a
/// time between inputs, so movement and publication traffic interleave as
/// they do on the TCP host; everything is pumped out at the end.
struct ReplayResult {
  SpanLog spans;
  double wall_s = 0;  ///< the whole pass, set-up included
  std::uint32_t pubs = 0;
  std::uint32_t planned_moves = 0;  ///< moves the pass sets out to make
  std::uint32_t moves = 0;          ///< committed
  std::uint64_t decode_failures = 0;
};

ReplayResult run_replay(const Workload& w, const Inputs& in);

}  // namespace perfbench
