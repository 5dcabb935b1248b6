#include "sim/host_core.h"

#include <cassert>

namespace tmps {

HostCore::HostCore(const Overlay& overlay, const BrokerConfig& broker_cfg,
                   const MobilityConfig& mobility_cfg)
    : overlay_(&overlay) {
  tracer_.set_clock([this] { return now(); });
  const BrokerId n = overlay.broker_count();
  brokers_.resize(n + 1);
  engines_.resize(n + 1);
  for (BrokerId b = 1; b <= n; ++b) {
    brokers_[b] = std::make_unique<Broker>(b, overlay_, broker_cfg);
    brokers_[b]->set_observability(&tracer_, &metrics_);
    brokers_[b]->set_clock([this] { return now(); });
    engines_[b] =
        std::make_unique<MobilityEngine>(*brokers_[b], *this, mobility_cfg);
    engines_[b]->set_transmit(
        [this, b](Broker::Outputs out) { transmit(b, std::move(out)); });
  }
}

Broker& HostCore::broker(BrokerId b) {
  assert(b >= 1 && b < brokers_.size());
  return *brokers_[b];
}

MobilityEngine& HostCore::engine(BrokerId b) {
  assert(b >= 1 && b < engines_.size());
  return *engines_[b];
}

obs::BrokerSnapshot HostCore::snapshot(BrokerId b) {
  obs::BrokerSnapshot snap;
  run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
    snap.time = now();
    e.broker().snapshot(snap);
  });
  return snap;
}

void HostCore::snapshot_routing(std::vector<obs::BrokerSnapshot>& out,
                                bool final_snapshot) {
  for (BrokerId b = 1; b < brokers_.size(); ++b) {
    out.push_back(snapshot(b));
    out.back().final_snapshot = final_snapshot;
  }
}

void HostCore::flush_profilers() {
  for (BrokerId b = 1; b < brokers_.size(); ++b) {
    if (obs::StageProfiler* prof = brokers_[b]->profiler()) {
      prof->flush(&metrics_);
    }
  }
}

void HostCore::tick_timeseries(double interval, double until) {
  flush_profilers();
  timeseries_.tick(now());
  if (now() + interval < until) {
    schedule(interval,
             [this, interval, until] { tick_timeseries(interval, until); });
  }
}

std::uint64_t HostCore::outstanding(TxnId cause) const {
  std::lock_guard lock(mu_);
  auto it = outstanding_.find(cause);
  return it == outstanding_.end() ? 0 : it->second;
}

std::map<TxnId, std::uint64_t> HostCore::outstanding_causes() const {
  std::lock_guard lock(mu_);
  return outstanding_;
}

void HostCore::movement_finished(MovementRecord rec) {
  std::lock_guard lock(mu_);
  stats_.record_movement(std::move(rec));
}

void HostCore::on_cause_drained(TxnId cause, std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    if (outstanding_.contains(cause)) {
      drain_watchers_[cause].push_back(std::move(fn));
      return;
    }
  }
  fn();
}

void HostCore::count_send(BrokerId from, BrokerId to, const Message& msg) {
  ++in_flight_;
  std::lock_guard lock(mu_);
  stats_.count_message(from, to, msg.type_name(), msg.cause);
  if (msg.cause != kNoTxn) ++outstanding_[msg.cause];
}

void HostCore::retire(TxnId cause) {
  std::vector<std::function<void()>> fire;
  if (cause != kNoTxn) {
    std::lock_guard lock(mu_);
    auto it = outstanding_.find(cause);
    assert(it != outstanding_.end() && "cause retired more often than sent");
    if (it != outstanding_.end() && --it->second == 0) {
      outstanding_.erase(it);
      if (auto w = drain_watchers_.find(cause); w != drain_watchers_.end()) {
        fire = std::move(w->second);
        drain_watchers_.erase(w);
      }
    }
  }
  for (auto& fn : fire) fn();
  // Last, so a host that sees nothing in flight sees the watchers run too.
  assert(in_flight_ > 0);
  --in_flight_;
}

}  // namespace tmps
