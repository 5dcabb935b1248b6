#include "control/balancer.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"

namespace tmps::control {

namespace {

/// Concurrent movement transactions the balancer keeps in flight.
constexpr std::size_t kMaxInflight = 4;
/// Global pause (host seconds) after an aborted/rejected movement: 3PC
/// aborts and injected failures must not turn into a retry storm.
constexpr double kAbortBackoff = 10.0;

}  // namespace

Balancer::Balancer(ControlConfig cfg, HostCore& host)
    : cfg_(cfg), host_(&host), estimator_(cfg), policy_(cfg, &host.overlay()) {
  if (obs::MetricsRegistry* m = host_->metrics()) {
    g_ratio_ = &m->gauge("control_imbalance_ratio");
    g_engaged_ = &m->gauge("control_engaged");
    g_inflight_ = &m->gauge("control_inflight_movements");
    c_initiated_ = &m->counter("control_movements_initiated_total");
    c_committed_ = &m->counter("control_movements_committed_total");
    c_aborted_ = &m->counter("control_movements_aborted_total");
    c_refused_ = &m->counter("control_movements_refused_total");
    c_suppressed_ = &m->counter("control_cooldown_suppressions_total");
  }
}

void Balancer::start(double deadline) {
  deadline_ = deadline;
  const double first = std::max(cfg_.start_delay, cfg_.sample_interval);
  if (host_->now() + first < deadline_) {
    host_->schedule(first, [this] {
      tick();
      schedule_next();
    });
  }
}

void Balancer::schedule_next() {
  // Respect the deadline so a draining host (Scenario's post-duration
  // run-to-empty) is not kept alive by an immortal control loop.
  if (host_->now() + cfg_.sample_interval >= deadline_) return;
  host_->schedule(cfg_.sample_interval, [this] {
    tick();
    schedule_next();
  });
}

std::map<BrokerId, BrokerSignals> Balancer::gather_signals() const {
  std::map<BrokerId, BrokerSignals> sig;
  const obs::MetricsRegistry* m = host_->metrics();
  for (BrokerId b = 1; b <= host_->overlay().broker_count(); ++b) {
    const obs::Labels labels = {{"broker", std::to_string(b)}};
    BrokerSignals& s = sig[b];
    if (m) {
      s.msgs = m->counter_value("broker_messages_processed_total", labels);
      s.pubs = m->counter_value("broker_publications_processed_total", labels);
      s.deliveries = m->counter_value("broker_deliveries_total", labels);
    }
    const RoutingTables& tables = host_->broker(b).tables();
    s.prt = tables.prt().size();
    s.srt = tables.srt().size();
    s.clients = host_->engine(b).hosted_clients();
    if (backlog_) s.backlog_seconds = backlog_(b);
  }
  return sig;
}

std::vector<ClientInfo> Balancer::gather_clients() const {
  std::vector<ClientInfo> out;
  for (BrokerId b = 1; b <= host_->overlay().broker_count(); ++b) {
    const MobilityEngine& engine = host_->engine(b);
    const RoutingTables& tables = host_->broker(b).tables();
    for (const ClientId id : engine.client_ids()) {
      const ClientStub* stub = engine.find_client(id);
      if (!stub) continue;
      ClientInfo info;
      info.id = id;
      info.at = b;
      info.profile =
          stub->subscriptions().size() + stub->advertisements().size();
      info.movable = stub->state() == ClientState::Started ||
                     stub->state() == ClientState::PauseOper;
      // Covered: every subscription is subsumed by some *other* entry of
      // this broker's PRT (shadow-only entries are transaction state, not
      // routing reality — skip them).
      info.covered = !stub->subscriptions().empty();
      for (const Subscription& sub : stub->subscriptions()) {
        bool this_one_covered = false;
        for (const auto& [sid, e] : tables.prt()) {
          if (sid.client == id || e.shadow_only) continue;
          if (e.item.filter.covers(sub.filter)) {
            this_one_covered = true;
            break;
          }
        }
        if (!this_one_covered) {
          info.covered = false;
          break;
        }
      }
      out.push_back(std::move(info));
    }
  }
  return out;
}

void Balancer::execute(const std::vector<MoveDecision>& plan) {
  // Each movement's profile retraction / re-issue lands on the engine's
  // Broker::inject_batch hand-off paths, so a plan's routing bursts are
  // applied as coalesced forwarding-index batches (RoutingTables::
  // apply_batch) rather than per-entry.
  for (const MoveDecision& d : plan) {
    if (inflight_.size() >= kMaxInflight) break;
    MoveStart res;
    host_->run_on(d.from, [&](MobilityEngine& e, Broker::Outputs& out) {
      res = e.try_initiate_move(d.client, d.to, out);
    });
    if (!res.started()) {
      // The census is one tick stale; a client can legitimately have moved
      // or paused since. Count it and replan next tick.
      ++state_.refused;
      if (c_refused_) c_refused_->inc();
      continue;
    }
    inflight_[res.txn] = d.client;
    policy_.on_move_started(d.client);
    ++state_.initiated;
    if (c_initiated_) c_initiated_->inc();
    TMPS_EVENT(host_->tracer(), res.txn, "control:migrate",
               {{"client", std::to_string(d.client)},
                {"from", std::to_string(d.from)},
                {"to", std::to_string(d.to)},
                {"ratio", std::to_string(state_.imbalance_ratio)}});
  }
}

void Balancer::tick() {
  ++state_.ticks;
  const double now = host_->now();
  estimator_.sample(now, gather_signals());
  if (!estimator_.ready()) return;

  const std::vector<MoveDecision> plan =
      policy_.plan(estimator_.loads(), gather_clients(), now);
  const PlanDiagnostics& diag = policy_.last_plan();
  state_.imbalance_ratio = diag.ratio;
  state_.engaged = diag.engaged;
  state_.cooldown_suppressed += diag.cooldown_suppressed;
  if (c_suppressed_) c_suppressed_->inc(diag.cooldown_suppressed);

  if (now >= state_.backoff_until) execute(plan);
  export_gauges();
}

void Balancer::on_movement(const MovementRecord& rec) {
  const auto it = inflight_.find(rec.txn);
  if (it == inflight_.end()) return;  // not one of ours
  const ClientId client = it->second;
  inflight_.erase(it);
  policy_.on_move_finished(client, rec.committed, host_->now());
  if (rec.committed) {
    ++state_.committed;
    ++moves_per_client_[client];
    if (c_committed_) c_committed_->inc();
  } else {
    ++state_.aborted;
    state_.backoff_until = host_->now() + kAbortBackoff;
    if (c_aborted_) c_aborted_->inc();
  }
  TMPS_EVENT(host_->tracer(), rec.txn, "control:resolved",
             {{"client", std::to_string(client)},
              {"committed", rec.committed ? "true" : "false"}});
  if (g_inflight_) g_inflight_->set(static_cast<double>(inflight_.size()));
}

void Balancer::export_gauges() {
  state_.inflight = inflight_.size();
  if (!g_ratio_) return;
  g_ratio_->set(state_.imbalance_ratio);
  g_engaged_->set(state_.engaged ? 1.0 : 0.0);
  g_inflight_->set(static_cast<double>(inflight_.size()));
  obs::MetricsRegistry* m = host_->metrics();
  for (const auto& [b, l] : estimator_.loads()) {
    m->gauge("control_broker_load", {{"broker", std::to_string(b)}})
        .set(l.score);
  }
}

std::string Balancer::state_json() const {
  const State& s = state_;
  std::ostringstream os;
  os << "{\"imbalance_ratio\":" << s.imbalance_ratio
     << ",\"engaged\":" << (s.engaged ? "true" : "false")
     << ",\"ticks\":" << s.ticks << ",\"initiated\":" << s.initiated
     << ",\"committed\":" << s.committed << ",\"aborted\":" << s.aborted
     << ",\"refused\":" << s.refused
     << ",\"cooldown_suppressed\":" << s.cooldown_suppressed
     << ",\"inflight\":" << inflight_.size()
     << ",\"backoff_until\":" << s.backoff_until << "}";
  return os.str();
}

}  // namespace tmps::control
