#include "repair/repair_engine.h"

#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "routing/routing_tables.h"

namespace tmps::repair {

namespace {

std::string entity_str(const EntityId& id) {
  return std::to_string(id.client) + ":" + std::to_string(id.seq);
}

// The per-table parts of a repair: the trace key naming a row, the message
// that re-issues one, and the broker entry point that retracts one.
const char* key(const RoutingTables::Prt&) { return "sub"; }
const char* key(const RoutingTables::Srt&) { return "adv"; }
Payload reissue(const Subscription& s) { return SubscribeMsg{s}; }
Payload reissue(const Advertisement& a) { return AdvertiseMsg{a}; }
void retract(Broker& b, const RoutingTables::Prt&, Hop from,
             const EntityId& id, RepairEngine::Outputs& out) {
  b.inject_unsubscribe(from, id, kNoTxn, out);
}
void retract(Broker& b, const RoutingTables::Srt&, Hop from,
             const EntityId& id, RepairEngine::Outputs& out) {
  b.inject_unadvertise(from, id, kNoTxn, out);
}

}  // namespace

RepairEngine::RepairEngine(MobilityEngine& engine, RuntimeEnv& env,
                           RepairConfig cfg)
    : engine_(&engine),
      broker_(&engine.broker()),
      env_(&env),
      tracer_(env.tracer()),
      cfg_(cfg) {
  if (obs::MetricsRegistry* mr = env_->metrics()) {
    const obs::Labels labels = {{"broker", std::to_string(broker_->id())}};
    rounds_ctr_ = &mr->counter("tmps_repair_rounds", labels);
    ops_ctr_ = &mr->counter("tmps_repair_ops_total", labels);
  }
}

BrokerId RepairEngine::broker_id() const { return broker_->id(); }

void RepairEngine::start(double until) {
  until_ = until;
  schedule_next(cfg_.start_delay > 0 ? cfg_.start_delay : cfg_.sweep_interval);
}

void RepairEngine::schedule_next(double delay) {
  env_->schedule(delay, [this] {
    if (env_->now() > until_) return;
    sweep();
    schedule_next(cfg_.sweep_interval);
  });
}

void RepairEngine::note_ops(std::uint64_t n) {
  if (n == 0) return;
  stats_.ops_total += n;
  stats_.last_op_time = env_->now();
  stats_.last_op_round = stats_.rounds;
  if (ops_ctr_) ops_ctr_->inc(n);
}

void RepairEngine::sweep() {
  ++stats_.rounds;
  if (rounds_ctr_) rounds_ctr_->inc();
  const double now = env_->now();
  Outputs out;
  std::size_t ops = 0;
  const std::size_t parked =
      engine_->repair_sweep_parked(cfg_.stale_after, out);
  stats_.parked_ops += parked;
  ops += parked;
  ops += sweep_shadows(now, out);
  ops += sweep_orphans(out);
  ops += sweep_quench(out);
  send_digests(out);
  note_ops(ops);
  TMPS_EVENT(tracer_, kNoTxn, "repair:round",
             {{"broker", std::to_string(broker_->id())},
              {"round", std::to_string(stats_.rounds)},
              {"ops", std::to_string(ops)}});
  engine_->emit(std::move(out));
}

void RepairEngine::on_repair(BrokerId from, const Message& msg, Outputs& out) {
  if (const auto* d = std::get_if<RepairDigestMsg>(&msg.payload)) {
    on_digest(from, *d, out);
  } else if (const auto* r = std::get_if<RepairRequestMsg>(&msg.payload)) {
    on_request(from, *r, out);
  } else if (const auto* v = std::get_if<RepairVerdictMsg>(&msg.payload)) {
    on_verdict(*v, out);
  }
}

// --- stale shadow state ----------------------------------------------------------

std::size_t RepairEngine::sweep_shadows(double now, Outputs& out) {
  RoutingTables& rt = broker_->tables();
  std::set<TxnId> live;
  const auto collect = [&live](const auto& table) {
    for (const auto& [id, e] : table) {
      if (e.shadow_txn != kNoTxn) live.insert(e.shadow_txn);
    }
  };
  collect(rt.prt());
  collect(rt.srt());
  std::erase_if(shadow_seen_,
                [&live](const auto& kv) { return !live.contains(kv.first); });
  stats_.suspect_shadows = live.size();

  std::size_t ops = 0;
  for (const TxnId txn : live) {
    const auto [it, fresh] = shadow_seen_.emplace(txn, now);
    if (fresh) continue;  // first sighting: start aging
    if (now - it->second < cfg_.stale_after) continue;

    const auto coord = static_cast<BrokerId>(txn >> 40);
    if (coord == broker_->id()) {
      // This broker coordinates the transaction: resolve from the local
      // record. InFlight means it is parked here and repair_sweep_parked is
      // already driving it.
      RepairVerdictMsg v = engine_->resolve_txn(txn);
      if (v.verdict == RepairVerdict::InFlight) continue;
      TMPS_EVENT(tracer_, txn, "repair:verdict",
                 {{"broker", std::to_string(broker_->id())},
                  {"verdict", to_string(v.verdict)},
                  {"origin", "local"}});
      engine_->repair_resolve_txn(v, out);
      ++stats_.verdicts_applied;
      ++ops;
      continue;
    }
    // Probe the coordinator; the sweep period is the retry backoff.
    TMPS_EVENT(tracer_, txn, "repair:probe-shadow",
               {{"broker", std::to_string(broker_->id())},
                {"coordinator", std::to_string(coord)}});
    RepairProbeMsg p;
    p.txn = txn;
    p.asker = broker_->id();
    broker_->send_unicast(coord, p, txn, out);
    ++stats_.probes_sent;
    ++ops;
  }
  return ops;
}

// --- orphaned client state -------------------------------------------------------

std::size_t RepairEngine::sweep_orphans(Outputs& out) {
  RoutingTables& rt = broker_->tables();
  const auto sweep = [&](const auto& table,
                         std::map<EntityId, std::uint32_t>& ages) {
    std::vector<std::pair<EntityId, Hop>> dead;
    std::set<EntityId> suspects;
    for (const auto& [id, e] : table) {
      if (!e.lasthop.is_client()) continue;
      if (e.shadow_txn != kNoTxn || e.shadow_only) continue;
      if (engine_->find_client(e.lasthop.client) != nullptr) continue;
      // The session layer knows more than hosting alone: a detached session
      // inside its grace window vetoes retraction, an expired one skips the
      // confirm_rounds aging.
      const int hint = session_probe_ ? session_probe_(e.lasthop.client) : 0;
      if (hint == 1) continue;
      suspects.insert(id);
      if (hint != 2 && ++ages[id] < cfg_.confirm_rounds) continue;
      dead.emplace_back(id, e.lasthop);
    }
    // Entries that stopped being suspicious (client reappeared mid-movement,
    // entry removed) lose their age.
    std::erase_if(ages, [&suspects](const auto& kv) {
      return !suspects.contains(kv.first);
    });
    for (const auto& [id, hop] : dead) {
      ages.erase(id);
      TMPS_EVENT(tracer_, kNoTxn, "repair:orphan-retract",
                 {{"broker", std::to_string(broker_->id())},
                  {key(table), entity_str(id)}});
      retract(*broker_, table, hop, id, out);
      ++stats_.orphans_retracted;
    }
    return dead.size();
  };
  const std::size_t subs = sweep(rt.prt(), orphan_sub_rounds_);
  return subs + sweep(rt.srt(), orphan_adv_rounds_);
}

// --- quench / un-quench reconciliation -------------------------------------------

std::size_t RepairEngine::sweep_quench(Outputs& out) {
  RoutingTables& rt = broker_->tables();
  const BrokerConfig& bc = broker_->config();
  std::size_t ops = 0;
  for (const BrokerId n : broker_->overlay().neighbors(broker_->id())) {
    const Hop link = Hop::of_broker(n);
    // Rows that must flow over `link` but were never forwarded there and
    // are not covered there: quench drift left by a reconfiguration
    // hand-off. A subscription must flow where an advertisement from that
    // direction intersects it (`need`); advertisements flood every link
    // except their lasthop.
    const auto reissue_missing = [&](auto& table, bool covering,
                                     const RoutingTables::Prt::LinkNeed& need) {
      std::vector<EntityId> missing;
      for (const auto& [id, e] : table) {
        if (e.shadow_only || e.shadow_txn != kNoTxn) continue;
        if (e.lasthop == link) continue;
        if (e.forwarded_to.contains(link)) continue;
        if (need && !need(e.item.filter, link)) continue;
        if (covering && table.covered_on_link(id, e.item.filter, link)) {
          continue;
        }
        missing.push_back(id);
      }
      for (const auto& id : missing) {
        auto* e = table.find(id);
        if (!e) continue;
        e->forwarded_to.insert(link);
        Message wire;
        wire.id = broker_->next_message_id();
        wire.payload = reissue(e->item);
        out.emplace_back(n, std::move(wire));
        TMPS_EVENT(tracer_, kNoTxn, "repair:unquench",
                   {{"broker", std::to_string(broker_->id())},
                    {key(table), entity_str(id)},
                    {"link", std::to_string(n)}});
        ++stats_.unquenches;
        ++ops;
      }
    };
    reissue_missing(rt.prt(), bc.subscription_covering, rt.link_need());
    reissue_missing(rt.srt(), bc.advertisement_covering, {});
  }
  return ops;
}

// --- neighbour digests -----------------------------------------------------------

void RepairEngine::send_digests(Outputs& out) {
  RoutingTables& rt = broker_->tables();
  for (const BrokerId n : broker_->overlay().neighbors(broker_->id())) {
    const Hop link = Hop::of_broker(n);
    RepairDigestMsg d;
    d.round = stats_.rounds;
    d.origin = broker_->id();
    const auto claim = [&link](const auto& table, std::vector<EntityId>& ids,
                               std::vector<EntityId>& in_flight) {
      for (const auto& [id, e] : table) {
        if (e.shadow_txn != kNoTxn || e.shadow_only) {
          // Mid-movement the neighbour's committed copy may already point
          // here while ours is still a shadow; the in-flight list vetoes its
          // orphan aging without claiming a forward we never made.
          in_flight.push_back(id);
          if (e.shadow_only) continue;
        }
        if (e.forwarded_to.contains(link)) ids.push_back(id);
      }
    };
    claim(rt.prt(), d.sub_ids, d.in_flight_subs);
    claim(rt.srt(), d.adv_ids, d.in_flight_advs);
    // Empty digests still go out: "I forward nothing to you" is exactly the
    // claim that lets the neighbour age its orphans.
    broker_->send_unicast(n, std::move(d), kNoTxn, out);
  }
}

void RepairEngine::on_digest(BrokerId from, const RepairDigestMsg& m,
                             Outputs& out) {
  RoutingTables& rt = broker_->tables();
  const Hop link = Hop::of_broker(from);

  // Claimed entries this broker lacks: the forward was lost. Additive and
  // idempotent, so request a re-send immediately.
  RepairRequestMsg req;
  req.round = m.round;
  req.origin = broker_->id();
  const auto request_missing = [](const auto& table,
                                  const std::vector<EntityId>& claimed,
                                  std::vector<EntityId>& missing) {
    for (const auto& id : claimed) {
      if (table.find(id) == nullptr) missing.push_back(id);
    }
  };
  request_missing(rt.prt(), m.sub_ids, req.sub_ids);
  request_missing(rt.srt(), m.adv_ids, req.adv_ids);
  if (!req.sub_ids.empty() || !req.adv_ids.empty()) {
    const std::uint64_t n = req.sub_ids.size() + req.adv_ids.size();
    stats_.reissues_requested += n;
    TMPS_EVENT(tracer_, kNoTxn, "repair:request",
               {{"broker", std::to_string(broker_->id())},
                {"from", std::to_string(from)},
                {"entries", std::to_string(n)}});
    broker_->send_unicast(from, std::move(req), kNoTxn, out);
    note_ops(n);
  }

  // Entries whose lasthop is the sender but which the sender no longer
  // claims: orphans of an interrupted movement. Destructive, so aged across
  // confirm_rounds digests.
  const auto retract_unclaimed = [&](const auto& table,
                                     const std::vector<EntityId>& claimed_ids,
                                     const std::vector<EntityId>& in_flight_ids,
                                     std::map<EntityId, std::uint32_t>& ages) {
    const std::set<EntityId> claimed(claimed_ids.begin(), claimed_ids.end());
    const std::set<EntityId> in_flight(in_flight_ids.begin(),
                                       in_flight_ids.end());
    std::vector<EntityId> dead;
    for (const auto& [id, e] : table) {
      if (e.lasthop != link) continue;
      if (e.shadow_txn != kNoTxn || e.shadow_only) continue;
      if (claimed.contains(id) || in_flight.contains(id)) {
        ages.erase(id);
        continue;
      }
      if (++ages[id] < cfg_.confirm_rounds) continue;
      dead.push_back(id);
    }
    for (const auto& id : dead) {
      ages.erase(id);
      TMPS_EVENT(tracer_, kNoTxn, "repair:digest-retract",
                 {{"broker", std::to_string(broker_->id())},
                  {key(table), entity_str(id)},
                  {"from", std::to_string(from)}});
      retract(*broker_, table, link, id, out);
      ++stats_.digest_retracts;
    }
    return dead.size();
  };
  const std::size_t subs = retract_unclaimed(rt.prt(), m.sub_ids,
                                             m.in_flight_subs,
                                             digest_sub_rounds_);
  note_ops(subs + retract_unclaimed(rt.srt(), m.adv_ids, m.in_flight_advs,
                                    digest_adv_rounds_));
}

void RepairEngine::on_request(BrokerId from, const RepairRequestMsg& m,
                              Outputs& out) {
  RoutingTables& rt = broker_->tables();
  const Hop link = Hop::of_broker(from);
  std::uint64_t served = 0;
  const auto serve = [&](const auto& table, const std::vector<EntityId>& ids) {
    for (const auto& id : ids) {
      const auto* e = table.find(id);
      if (!e || e->shadow_only || !e->forwarded_to.contains(link)) continue;
      Message wire;
      wire.id = broker_->next_message_id();
      wire.payload = reissue(e->item);
      out.emplace_back(from, std::move(wire));
      ++served;
    }
  };
  serve(rt.prt(), m.sub_ids);
  serve(rt.srt(), m.adv_ids);
  if (served > 0) {
    stats_.reissues_served += served;
    TMPS_EVENT(tracer_, kNoTxn, "repair:reissue",
               {{"broker", std::to_string(broker_->id())},
                {"to", std::to_string(from)},
                {"entries", std::to_string(served)}});
    note_ops(served);
  }
}

void RepairEngine::on_verdict(const RepairVerdictMsg& v, Outputs& out) {
  if (v.verdict == RepairVerdict::InFlight) return;
  TMPS_EVENT(tracer_, v.txn, "repair:verdict",
             {{"broker", std::to_string(broker_->id())},
              {"verdict", to_string(v.verdict)},
              {"origin", "probe"}});
  ++stats_.verdicts_applied;
  note_ops(1);
  engine_->repair_resolve_txn(v, out);
}

}  // namespace tmps::repair
