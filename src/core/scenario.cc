#include "core/scenario.h"

#include <algorithm>
#include <cassert>
#include <fstream>

namespace tmps {

Scenario::Scenario(ScenarioConfig cfg)
    : cfg_(std::move(cfg)),
      overlay_(cfg_.overlay ? *cfg_.overlay : Overlay::paper_default()),
      rng_(cfg_.seed) {
  assert(!cfg_.move_pairs.empty());
}

Scenario::~Scenario() = default;

Filter Scenario::filter_of(std::uint32_t k) const {
  if (cfg_.filter_override) return cfg_.filter_override(k);
  const int member = static_cast<int>(k % 10) + 1;  // subscription number
  const auto family = static_cast<std::int64_t>(k / 10);
  return workload_filter_at(cfg_.workload, member, family, cfg_.seed + k / 10);
}

bool Scenario::is_mover(std::uint32_t k) const {
  if (cfg_.mover_override) return cfg_.mover_override(k);
  return k < cfg_.moving_clients;
}

const std::pair<BrokerId, BrokerId>& Scenario::pair_of(
    std::uint32_t k) const {
  // Odd-numbered subscriptions (member = k%10+1 odd) use the first pair,
  // even-numbered the second — the Fig. 8 assignment.
  const std::size_t idx = (k % 10) % 2;
  return cfg_.move_pairs[idx % cfg_.move_pairs.size()];
}

BrokerId Scenario::other_end(std::uint32_t k, BrokerId at) const {
  const auto& p = pair_of(k);
  return at == p.first ? p.second : p.first;
}

void Scenario::build() {
  // The consolidated BrokerConfig carries the observability toggles
  // (programmatic or via BrokerConfig::from_env); the scenario-level sink
  // paths remain as per-run overrides.
  const BrokerConfig::Obs& obs = cfg_.broker.obs;
  if (obs.audit) cfg_.audit = true;
  if (!obs.trace_dir.empty()) {
    if (cfg_.trace_path.empty()) {
      cfg_.trace_path = obs.trace_dir + "/trace.jsonl";
    }
    if (cfg_.metrics_path.empty()) {
      cfg_.metrics_path = obs.trace_dir + "/metrics.jsonl";
    }
    if (cfg_.snapshot_path.empty()) {
      cfg_.snapshot_path = obs.trace_dir + "/snapshots.jsonl";
    }
    if (cfg_.timeseries_path.empty() && obs.timeseries_interval > 0) {
      cfg_.timeseries_path = obs.trace_dir + "/timeseries.jsonl";
    }
    if (cfg_.profile_path.empty() && obs.profile) {
      cfg_.profile_path = obs.trace_dir + "/profile.ndjson";
    }
  }
  net_ = std::make_unique<SimNetwork>(overlay_, cfg_.broker, cfg_.net,
                                      cfg_.mobility);
  // The auditor reconstructs movement windows from spans, so auditing
  // implies tracing even when no trace file is requested.
  if (!cfg_.trace_path.empty() || cfg_.audit || obs.tracing) {
    net_->tracer()->set_enabled(true);
  }

  for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
    MobilityEngine& engine = net_->engine(b);
    engine.set_delivery_sink(
        [this, b](ClientId c, const Publication& pub, SimTime t) {
          ++audit_.delivered;
          if (!seen_[c].insert(pub.id()).second) ++audit_.duplicates;
          if (cfg_.audit) auditor_.on_delivery(c, to_string(pub.id()), t);
          stats().count_delivery(b, c);
        });
    engine.set_move_callback([this](const MovementRecord& rec) {
      on_movement(rec);
      if (rec.committed) moved_clients_.insert(rec.client);
      if (cfg_.movement_observer) cfg_.movement_observer(rec);
    });
  }
  // The services start in broker order, repair before sessions, staggered
  // per broker so the fleet does not sweep (and digest) in lockstep.
  const BrokerId n = overlay_.broker_count();
  for (BrokerId b = 1; b <= n; ++b) {
    if (repair::RepairEngine* re = net_->repair(b)) {
      re->start(cfg_.broker.repair.sweep_interval +
                    0.05 * static_cast<double>(b - 1),
                cfg_.duration);
    }
  }
  for (BrokerId b = 1; b <= n; ++b) {
    if (session::SessionManager* m = net_->sessions(b)) {
      m->start(cfg_.broker.session.tick_interval +
                   0.03 * static_cast<double>(b - 1),
               cfg_.duration);
    }
  }
  for (const auto& hook : cfg_.post_build) hook(*this);
}

void Scenario::publish_tick(BrokerId b, ClientId id) {
  // The balancer may migrate publishers (advertisement reconfiguration);
  // follow the client so it keeps publishing from its current broker. Issuing
  // the publish at the stale home would silently no-op.
  if (!net_->engine(b).find_client(id)) {
    for (BrokerId nb = 1; nb <= overlay_.broker_count(); ++nb) {
      if (net_->engine(nb).find_client(id)) {
        b = nb;
        break;
      }
    }
  }
  if (net_->engine(b).find_client(id)) {
    std::uniform_int_distribution<std::int64_t> x(kSpaceLo, kSpaceHi);
    const auto groups =
        static_cast<std::int64_t>((cfg_.total_clients + 9) / 10);
    std::uniform_int_distribution<std::int64_t> g(
        0, groups > 0 ? groups - 1 : 0);
    Publication pub = make_publication({id, ++pub_seq_}, x(rng_), g(rng_));
    published_.emplace_back(pub, net_->now());
    net_->run_on(b, [&](MobilityEngine& eng, Broker::Outputs& out) {
      eng.publish(id, std::move(pub), out);
    });
  }
  if (net_->now() + cfg_.publish_interval < cfg_.duration) {
    net_->events().schedule_in(cfg_.publish_interval,
                               [this, b, id] { publish_tick(b, id); });
  }
}

void Scenario::account_losses() {
  // Stationary subscribers (no movement, no churn of their own unless
  // churn is enabled — then skip the audit, re-subscription windows blur
  // entitlement) must receive every matching publication issued after
  // their join settled.
  if (cfg_.background_churn_interval > 0) return;
  for (std::uint32_t k = 0; k < cfg_.total_clients; ++k) {
    const bool mover = is_mover(k);
    if (mover && cfg_.movers_are_publishers) continue;  // no subscription
    const ClientId id = subscriber_id(k);
    const Filter f = filter_of(k);
    const auto seen = seen_.find(id);
    for (const auto& [pub, t_pub] : published_) {
      if (pub.id().seq <= settle_seq_) continue;
      if (!f.matches(pub)) continue;
      auto& expected =
          mover ? audit_.mover_expected : audit_.stationary_expected;
      auto& losses = mover ? audit_.mover_losses : audit_.stationary_losses;
      ++expected;
      if (cfg_.audit) auditor_.expect_delivery(id, to_string(pub.id()), t_pub);
      if (seen == seen_.end() || !seen->second.contains(pub.id())) {
        ++losses;
      }
    }
  }
}

void Scenario::schedule_publishers() {
  for (std::uint32_t p = 0; p < cfg_.publisher_brokers.size(); ++p) {
    const BrokerId b = cfg_.publisher_brokers[p];
    const ClientId id = publisher_id(p);
    // Advertisements go out first so joining subscriptions have somewhere to
    // route towards.
    net_->events().schedule_at(0.001 + 0.001 * p, [this, b, id] {
      net_->run_on(b, [id](MobilityEngine& eng, Broker::Outputs& out) {
        eng.connect_client(id);
        eng.advertise(id, full_space_advertisement(), out);
      });
    });
    if (cfg_.publish_interval > 0) {
      const double first =
          cfg_.join_window + cfg_.publish_interval * (p + 1) /
                                 (cfg_.publisher_brokers.size() + 1.0);
      net_->events().schedule_at(first, [this, b, id] { publish_tick(b, id); });
    }
  }
}

void Scenario::churn_tick(BrokerId b, ClientId id, Filter f) {
  net_->run_on(b, [&](MobilityEngine& eng, Broker::Outputs& out) {
    ClientStub* stub = eng.find_client(id);
    // Skip (don't abandon) the churn while the client is paused or mid-move
    // — the balancer may migrate "stationary" clients, and profile churn
    // during a movement transaction would race the state hand-off. A client
    // that has completed a movement stops churning for good (even if a later
    // movement returns it home): re-issuing the profile would retract the
    // moved entries along the movement path and fail the orphan-state audit.
    if (!stub || stub->state() != ClientState::Started ||
        moved_clients_.contains(id)) {
      return;
    }
    // Retract the current incarnation, re-subscribe a fresh one: the
    // "background pub/sub activity" of the paper's conclusions.
    for (const auto& s : std::vector<Subscription>(stub->subscriptions())) {
      eng.unsubscribe(id, s.id, out);
    }
    eng.subscribe(id, f, out);
  });
  if (net_->now() + cfg_.background_churn_interval < cfg_.duration) {
    net_->events().schedule_in(
        cfg_.background_churn_interval,
        [this, b, id, f] { churn_tick(b, id, f); });
  }
}

void Scenario::schedule_joins() {
  std::uniform_real_distribution<double> jitter(0.0, cfg_.join_window);
  std::uniform_real_distribution<double> churn_stagger(
      0.0, std::max(cfg_.background_churn_interval, 1e-9));
  for (std::uint32_t k = 0; k < cfg_.total_clients; ++k) {
    const BrokerId home =
        cfg_.home_override ? cfg_.home_override(k) : pair_of(k).first;
    const double at = 0.05 + jitter(rng_);
    const ClientId id = subscriber_id(k);
    const Filter f = filter_of(k);
    const bool mover = is_mover(k);
    const double churn_at =
        cfg_.background_churn_interval > 0 && !mover
            ? cfg_.join_window + churn_stagger(rng_)
            : -1.0;
    net_->events().schedule_at(at, [this, home, id, f, k, mover, churn_at] {
      net_->run_on(home, [&](MobilityEngine& eng, Broker::Outputs& out) {
        eng.connect_client(id);
        if (mover && cfg_.movers_are_publishers) {
          eng.advertise(id, f, out);
        } else {
          eng.subscribe(id, f, out);
        }
      });
      if (mover) {
        mover_index_[id] = k;
        schedule_move(k, home, other_end(k, home),
                      net_->now() + cfg_.pause_between_moves);
      } else if (churn_at > 0) {
        net_->events().schedule_at(
            churn_at, [this, home, id, f] { churn_tick(home, id, f); });
      }
    });
  }
}

void Scenario::schedule_move(std::uint32_t k, BrokerId from, BrokerId to,
                             double when) {
  if (when >= cfg_.duration) return;
  const ClientId id = subscriber_id(k);
  net_->events().schedule_at(when, [this, id, from, to] {
    net_->run_on(from, [&](MobilityEngine& eng, Broker::Outputs& out) {
      eng.initiate_move(id, to, out);
    });
  });
}

void Scenario::on_movement(const MovementRecord& rec) {
  auto it = mover_index_.find(rec.client);
  if (it == mover_index_.end()) return;
  const std::uint32_t k = it->second;
  const BrokerId at = rec.committed ? rec.target : rec.source;
  schedule_move(k, at, other_end(k, at),
                net_->now() + cfg_.pause_between_moves);
}

void Scenario::run() {
  build();
  schedule_publishers();
  schedule_joins();
  if (cfg_.broker.obs.timeseries_interval > 0) {
    // First tick establishes the baseline window at t=0.
    net_->events().schedule_at(0.0, [this] {
      net_->tick_timeseries(cfg_.broker.obs.timeseries_interval,
                            cfg_.duration);
    });
  }
  // Publications before this point may legitimately race join propagation;
  // everything later is audited for stationary loss.
  net_->events().schedule_at(cfg_.join_window + 2.0,
                             [this] { settle_seq_ = pub_seq_; });
  net_->run_until(cfg_.duration);
  // Drain in-flight traffic (no new work is scheduled past `duration`) so
  // the loss audit does not count undelivered-yet publications.
  net_->run();
  account_losses();
  run_audit();  // must precede dump_observability(): the flush clears traces
  dump_observability();
}

void Scenario::run_audit() {
  if (!cfg_.audit && cfg_.snapshot_path.empty()) return;

  std::vector<obs::BrokerSnapshot> snaps;
  net_->snapshot_routing(snaps, /*final_snapshot=*/true);
  for (auto& s : snaps) s.run = cfg_.run_label;

  if (!cfg_.snapshot_path.empty()) {
    const auto mode = cfg_.trace_append ? std::ios::app : std::ios::trunc;
    std::ofstream os(cfg_.snapshot_path, mode);
    for (const auto& s : snaps) s.write_jsonl(os);
  }

  if (!cfg_.audit) return;
  auditor_.set_path_fn([this](std::uint32_t a, std::uint32_t b) {
    return overlay_.path(a, b);
  });
  auditor_.ingest_trace(net_->tracer()->records());
  for (const auto& s : snaps) auditor_.ingest_snapshot(s);
  for (const auto& [cause, n] : net_->outstanding_causes()) {
    auditor_.set_outstanding(cause, n);
  }
  audit_report_ = auditor_.finish();
  if (!audit_report_.clean()) {
    // Post-mortem context: every broker's last-N protocol/data events.
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      net_->broker(b).dump_flight("audit-violation");
    }
  }
}

void Scenario::dump_observability() {
  if (cfg_.trace_path.empty() && cfg_.metrics_path.empty() &&
      cfg_.timeseries_path.empty() && cfg_.profile_path.empty()) {
    return;
  }
  net_->flush_profilers();
  const auto mode = cfg_.trace_append ? std::ios::app : std::ios::trunc;

  if (!cfg_.profile_path.empty()) {
    std::ofstream os(cfg_.profile_path, mode);
    std::ofstream cos(cfg_.profile_path + ".collapsed", mode);
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      if (const obs::StageProfiler* prof = net_->broker(b).profiler()) {
        if (os) prof->write_ndjson(os);
        if (cos) prof->write_collapsed(cos);
      }
    }
  }

  if (!cfg_.trace_path.empty()) {
    obs::Tracer& tracer = *net_->tracer();
    // Join record per movement: lets the trace inspector attach the final
    // message attribution (Stats cause counts) to each waterfall by TxnId.
    for (const MovementRecord& m : stats().movements()) {
      tracer.event(m.txn, "movement:stats",
                   {{"messages", std::to_string(m.messages)},
                    {"committed", m.committed ? "true" : "false"},
                    {"duration", std::to_string(m.duration())}});
    }
    std::ofstream os(cfg_.trace_path, mode);
    if (os) tracer.write_jsonl(os, cfg_.run_label);
  }

  if (!cfg_.metrics_path.empty()) {
    obs::MetricsRegistry& mr = *net_->metrics();
    // Expose the per-link traffic totals: the inspector's hot-link report
    // reads these counters.
    for (const auto& [link, n] : stats().link_counts()) {
      obs::Counter& c =
          mr.counter("link_messages_total",
                     {{"from", std::to_string(link.first)},
                      {"to", std::to_string(link.second)}});
      c.inc(n - std::min(n, c.value()));  // idempotent if called twice
    }
    std::ofstream os(cfg_.metrics_path, mode);
    if (os) mr.write_jsonl(os, cfg_.run_label);
  }

  if (!cfg_.timeseries_path.empty() &&
      net_->timeseries().window_count() > 0) {
    std::ofstream os(cfg_.timeseries_path, mode);
    if (os) net_->timeseries().write_ndjson(os);
  }
}

Summary Scenario::latency() const {
  return net_->stats().latency_summary(cfg_.warmup, cfg_.duration);
}

double Scenario::messages_per_movement() const {
  return net_->stats().messages_per_movement(cfg_.warmup, cfg_.duration);
}

std::uint64_t Scenario::movements() const {
  return net_->stats().committed_movements(cfg_.warmup, cfg_.duration);
}

const std::vector<MovementRecord>& Scenario::movement_records() const {
  return net_->stats().movements();
}

}  // namespace tmps
