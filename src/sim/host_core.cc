#include "sim/host_core.h"

#include <cassert>
#include <functional>

namespace tmps {

// Broker b's view of the host: everything forwards, except that timers and
// deferred drain watchers run at b through run_on.
class HostCore::BrokerRuntime final : public RuntimeEnv {
 public:
  BrokerRuntime(HostCore& host, BrokerId b) : host_(&host), b_(b) {}

  SimTime now() const override { return host_->now(); }
  void schedule(double delay, std::function<void()> fn) override {
    host_->schedule(delay, [host = host_, b = b_, fn = std::move(fn)] {
      host->run_on(b, [&fn](MobilityEngine&, Broker::Outputs&) { fn(); });
    });
  }
  void movement_finished(MovementRecord rec) override {
    host_->movement_finished(std::move(rec));
  }
  void on_cause_drained(TxnId cause, std::function<void()> fn) override {
    host_->watch_drain(b_, cause, std::move(fn));
  }
  obs::Tracer* tracer() override { return host_->tracer(); }
  obs::MetricsRegistry* metrics() override { return host_->metrics(); }
  void snapshot_routing(std::vector<obs::BrokerSnapshot>& out,
                        bool final_snapshot) override {
    host_->snapshot_routing(out, final_snapshot);
  }

 private:
  HostCore* host_;
  BrokerId b_;
};

HostCore::HostCore(const Overlay& overlay, const BrokerConfig& broker_cfg,
                   const MobilityConfig& mobility_cfg)
    : overlay_(&overlay) {
  tracer_.set_clock([this] { return now(); });
  const BrokerId n = overlay.broker_count();
  runtimes_.resize(n + 1);
  brokers_.resize(n + 1);
  engines_.resize(n + 1);
  repairs_.resize(n + 1);
  sessions_.resize(n + 1);
  for (BrokerId b = 1; b <= n; ++b) {
    runtimes_[b] = std::make_unique<BrokerRuntime>(*this, b);
    brokers_[b] = std::make_unique<Broker>(b, overlay_, broker_cfg);
    brokers_[b]->set_observability(&tracer_, &metrics_);
    brokers_[b]->set_clock([this] { return now(); });
    engines_[b] = std::make_unique<MobilityEngine>(*brokers_[b],
                                                   *runtimes_[b], mobility_cfg);
    MobilityEngine& engine = *engines_[b];
    engine.set_transmit(
        [this, b](Broker::Outputs out) { transmit(b, std::move(out)); });
    if (broker_cfg.repair.enabled) {
      repairs_[b] = std::make_unique<repair::RepairEngine>(
          engine, *runtimes_[b], broker_cfg.repair);
      engine.set_repair_handler(std::bind_front(
          &repair::RepairEngine::on_repair, repairs_[b].get()));
    }
    if (broker_cfg.session.enabled) {
      sessions_[b] = std::make_unique<session::SessionManager>(
          engine, *runtimes_[b], broker_cfg.session);
      engine.set_session_handler(std::bind_front(
          &session::SessionManager::on_session, sessions_[b].get()));
      if (repairs_[b]) {
        repairs_[b]->set_session_probe(std::bind_front(
            &session::SessionManager::repair_hint, sessions_[b].get()));
      }
    }
  }
}

HostCore::~HostCore() = default;

Broker& HostCore::broker(BrokerId b) {
  assert(b >= 1 && b < brokers_.size());
  return *brokers_[b];
}

MobilityEngine& HostCore::engine(BrokerId b) {
  assert(b >= 1 && b < engines_.size());
  return *engines_[b];
}

repair::RepairEngine* HostCore::repair(BrokerId b) {
  assert(b >= 1 && b < repairs_.size());
  return repairs_[b].get();
}

session::SessionManager* HostCore::sessions(BrokerId b) {
  assert(b >= 1 && b < sessions_.size());
  return sessions_[b].get();
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
  watch_drain(kNoBroker, cause, std::move(fn));
}

void HostCore::watch_drain(BrokerId owner, TxnId cause,
                           std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    if (outstanding_.contains(cause)) {
      if (owner != kNoBroker) {
        fn = [this, owner, fn = std::move(fn)] {
          run_on(owner, [&fn](MobilityEngine&, Broker::Outputs&) { fn(); });
        };
      }
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
