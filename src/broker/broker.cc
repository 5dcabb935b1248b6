#include "broker/broker.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>

namespace tmps {

namespace {

/// Seconds with enough precision for sub-millisecond hop latencies
/// (std::to_string's fixed six decimals would flatten them to 0).
std::string fmt_secs(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

Broker::Broker(BrokerId id, const Overlay* overlay, BrokerConfig cfg)
    : id_(id), overlay_(overlay), cfg_(std::move(cfg)) {
  assert(overlay_ && overlay_->contains(id_));
  if (cfg_.obs.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(cfg_.obs.flight_capacity);
  }
  if (cfg_.obs.profile) enable_profiling(cfg_.obs.profile_rate);
}

void Broker::enable_profiling(std::uint32_t rate) {
  if (!prof_) {
    prof_ = std::make_unique<obs::StageProfiler>(std::to_string(id_), rate);
    tables_.set_profiler(prof_.get());
  }
  prof_->set_enabled(true);
}

void Broker::disable_profiling() {
  tables_.set_profiler(nullptr);
  prof_.reset();
}

void Broker::set_observability(obs::Tracer* tracer,
                               obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (!metrics) {
    msgs_processed_ = covering_retracts_ = covering_unquenches_ = nullptr;
    pubs_processed_ = deliveries_ = nullptr;
    delivery_latency_ = delivery_latency_broker_ = nullptr;
    return;
  }
  const obs::Labels labels = {{"broker", std::to_string(id_)}};
  if (cfg_.obs.pub_provenance) {
    // Global + per-broker end-to-end delivery latency, fed from provenance
    // tags at the delivering (edge) broker.
    delivery_latency_ = &metrics->histogram("pub_delivery_latency_seconds");
    delivery_latency_broker_ =
        &metrics->histogram("broker_delivery_latency_seconds", labels);
  }
  msgs_processed_ = &metrics->counter("broker_messages_processed_total",
                                      labels);
  covering_retracts_ = &metrics->counter("broker_covering_retracts_total",
                                         labels);
  covering_unquenches_ = &metrics->counter("broker_covering_unquenches_total",
                                           labels);
  // Publication-load signals for the control plane (src/control): matching
  // passes plus local fan-out, the work that concentrates where clients do.
  pubs_processed_ = &metrics->counter("broker_publications_processed_total",
                                      labels);
  deliveries_ = &metrics->counter("broker_deliveries_total", labels);
}

MessageId Broker::next_message_id() {
  return (static_cast<MessageId>(id_) << 40) | ++msg_seq_;
}

void Broker::send(BrokerId to, Payload payload, TxnId cause, Outputs& out) {
  Message m;
  m.id = next_message_id();
  m.cause = cause;
  m.payload = std::move(payload);
  out.emplace_back(to, std::move(m));
}

// --- client entry points ----------------------------------------------------

Broker::Outputs Broker::client_subscribe(ClientId client,
                                         const Subscription& sub,
                                         TxnId cause) {
  Outputs out;
  do_subscribe(Hop::of_client(client), sub, cause, out);
  return out;
}

Broker::Outputs Broker::client_unsubscribe(ClientId client,
                                           const SubscriptionId& id,
                                           TxnId cause) {
  Outputs out;
  do_unsubscribe(Hop::of_client(client), id, cause, out);
  return out;
}

Broker::Outputs Broker::client_advertise(ClientId client,
                                         const Advertisement& adv,
                                         TxnId cause) {
  Outputs out;
  do_advertise(Hop::of_client(client), adv, cause, out);
  return out;
}

Broker::Outputs Broker::client_unadvertise(ClientId client,
                                           const AdvertisementId& id,
                                           TxnId cause) {
  Outputs out;
  do_unadvertise(Hop::of_client(client), id, cause, out);
  return out;
}

Broker::Outputs Broker::client_publish(ClientId client, const Publication& pub,
                                       TxnId cause) {
  Outputs out;
  if (flight_) {
    flight_->record("client-op", clock_ ? clock_() : 0.0, 0, cause, client);
  }
  do_publish(Hop::of_client(client), pub, cause, out);
  return out;
}

// --- injected operations (mobility layer) ------------------------------------

void Broker::inject_subscribe(Hop from, const Subscription& sub, TxnId cause,
                              std::vector<Output>& out) {
  do_subscribe(from, sub, cause, out);
}
void Broker::inject_unsubscribe(Hop from, const SubscriptionId& id,
                                TxnId cause, std::vector<Output>& out) {
  do_unsubscribe(from, id, cause, out);
}
void Broker::inject_advertise(Hop from, const Advertisement& adv, TxnId cause,
                              std::vector<Output>& out) {
  do_advertise(from, adv, cause, out);
}
void Broker::inject_unadvertise(Hop from, const AdvertisementId& id,
                                TxnId cause, std::vector<Output>& out) {
  do_unadvertise(from, id, cause, out);
}
void Broker::inject_publish(Hop from, const Publication& pub, TxnId cause,
                            std::vector<Output>& out) {
  do_publish(from, pub, cause, out);
}

std::vector<Hop> Broker::flood_links() const {
  std::vector<Hop> flood;
  for (const BrokerId n : overlay_->neighbors(id_)) {
    flood.push_back(Hop::of_broker(n));
  }
  return flood;
}

void Broker::inject_batch(std::vector<RoutingMutation> muts, TxnId cause,
                          std::vector<Output>& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kRouteUpdate);
  for (RoutingMutation& m : muts) {
    if (m.kind == RoutingMutation::Kind::kAddAdv && m.flood_links.empty()) {
      m.flood_links = flood_links();
    }
  }
  for (const RoutingDelta& d :
       tables_.apply_batch(muts, covering_policy())) {
    apply_delta(d, cause, out);
  }
}

// --- network input -----------------------------------------------------------

Broker::Outputs Broker::on_message(BrokerId from, const Message& msg) {
  Outputs out;
  if (msgs_processed_) msgs_processed_->inc();
  if (flight_) {
    flight_->record(msg.type_name(), clock_ ? clock_() : 0.0, from, msg.cause,
                    msg.id);
  }
  const Hop from_hop = Hop::of_broker(from);
  if (const auto* p = std::get_if<AdvertiseMsg>(&msg.payload)) {
    do_advertise(from_hop, p->adv, msg.cause, out);
  } else if (const auto* p = std::get_if<UnadvertiseMsg>(&msg.payload)) {
    do_unadvertise(from_hop, p->adv_id, msg.cause, out);
  } else if (const auto* p = std::get_if<SubscribeMsg>(&msg.payload)) {
    do_subscribe(from_hop, p->sub, msg.cause, out);
  } else if (const auto* p = std::get_if<UnsubscribeMsg>(&msg.payload)) {
    do_unsubscribe(from_hop, p->sub_id, msg.cause, out);
  } else if (const auto* p = std::get_if<PublishMsg>(&msg.payload)) {
    do_publish(from_hop, p->pub, msg.cause, out,
               msg.prov ? &*msg.prov : nullptr);
  } else if (control_) {
    TMPS_PROF_STAGE(prof_.get(), obs::Stage::kControl);
    control_->on_control(from, msg, out);
  } else if (msg.unicast_dest && *msg.unicast_dest != id_) {
    // No mobility layer attached: act as a plain relay for unicasts.
    forward_unicast(msg, out);
  }
  return out;
}

void Broker::send_unicast(BrokerId dest, Payload payload, TxnId cause,
                          std::vector<Output>& out) {
  Message m;
  m.id = next_message_id();
  m.cause = cause;
  m.unicast_dest = dest;
  m.payload = std::move(payload);
  if (dest == id_) {
    // Local delivery: hand straight to the control handler.
    assert(control_);
    control_->on_control(id_, m, out);
    return;
  }
  out.emplace_back(overlay_->next_hop(id_, dest), std::move(m));
}

void Broker::forward_unicast(const Message& msg, std::vector<Output>& out) {
  assert(msg.unicast_dest && *msg.unicast_dest != id_);
  out.emplace_back(overlay_->next_hop(id_, *msg.unicast_dest), msg);
}

void Broker::deliver_local(ClientId client, const Publication& pub) {
  // Untagged path (buffered-state redelivery, tests): no latency to observe.
  deliver_local(client, pub, nullptr, clock_ ? clock_() : 0.0);
}

void Broker::deliver_local(ClientId client, const Publication& pub,
                           const obs::ProvenanceTag* tag, double now) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kDeliver);
  if (deliveries_) deliveries_->inc();
  if (flight_) {
    flight_->record("deliver", now, 0, 0, client);
  }
  if (tag != nullptr) {
    // End-to-end latency up to edge-broker arrival; publications intercepted
    // for a moving client are counted here too (the buffering wait is
    // movement latency, accounted by the movement records, not routing
    // latency).
    const double latency = now - tag->origin_time;
    if (delivery_latency_) delivery_latency_->observe(latency);
    if (delivery_latency_broker_) delivery_latency_broker_->observe(latency);
    if (tag->sampled) {
      TMPS_EVENT(tracer_, tag->trace, "pub:deliver",
                 {{"broker", std::to_string(id_)},
                  {"client", std::to_string(client)},
                  {"pub", to_string(pub.id())},
                  {"latency", fmt_secs(latency)},
                  {"hops", std::to_string(tag->hops)}});
    }
  }
  if (control_ && control_->intercept_notification(client, pub)) return;
  if (notify_) notify_(client, pub);
}

void Broker::dump_flight(std::string_view reason) const {
  if (!flight_ || cfg_.obs.trace_dir.empty()) return;
  std::ofstream os(
      cfg_.obs.trace_dir + "/flight_b" + std::to_string(id_) + ".jsonl",
      std::ios::app);
  if (os) flight_->write_jsonl(os, id_, reason);
}

// --- routing handlers ----------------------------------------------------------

void Broker::apply_delta(const RoutingDelta& delta, TxnId cause, Outputs& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kDeltaApply);
  for (const RoutingOp& op : delta.ops) {
    switch (op.kind) {
      case RoutingOp::Kind::kForwardSub: {
        const SubEntry* e = tables_.prt().find(op.id);
        if (!e) break;  // ops reference live entries; defensive only
        send(op.link.broker, SubscribeMsg{e->item}, cause, out);
        if (op.induced) {
          if (covering_unquenches_) covering_unquenches_->inc();
          if (cause != kNoTxn) {
            TMPS_EVENT(tracer_, cause, "covering:sub",
                       {{"broker", std::to_string(id_)},
                        {"link", std::to_string(op.link.broker)},
                        {"sub", to_string(op.id)}});
          }
        }
        break;
      }
      case RoutingOp::Kind::kRetractSub:
        send(op.link.broker, UnsubscribeMsg{op.id}, cause, out);
        if (op.induced) {
          if (covering_retracts_) covering_retracts_->inc();
          if (cause != kNoTxn) {
            TMPS_EVENT(tracer_, cause, "covering:unsub",
                       {{"broker", std::to_string(id_)},
                        {"link", std::to_string(op.link.broker)},
                        {"sub", to_string(op.id)}});
          }
        }
        break;
      case RoutingOp::Kind::kForwardAdv: {
        const AdvEntry* e = tables_.srt().find(op.id);
        if (!e) break;
        send(op.link.broker, AdvertiseMsg{e->item}, cause, out);
        if (op.induced) {
          if (covering_unquenches_) covering_unquenches_->inc();
          if (cause != kNoTxn) {
            TMPS_EVENT(tracer_, cause, "covering:adv",
                       {{"broker", std::to_string(id_)},
                        {"link", std::to_string(op.link.broker)},
                        {"adv", to_string(op.id)}});
          }
        }
        break;
      }
      case RoutingOp::Kind::kRetractAdv:
        send(op.link.broker, UnadvertiseMsg{op.id}, cause, out);
        if (op.induced) {
          if (covering_retracts_) covering_retracts_->inc();
          if (cause != kNoTxn) {
            TMPS_EVENT(tracer_, cause, "covering:unadv",
                       {{"broker", std::to_string(id_)},
                        {"link", std::to_string(op.link.broker)},
                        {"adv", to_string(op.id)}});
          }
        }
        break;
    }
  }
}

void Broker::do_subscribe(Hop from, const Subscription& sub, TxnId cause,
                          Outputs& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kRouteUpdate);
  apply_delta(tables_.apply(RoutingMutation::add_sub(sub, from),
                            covering_policy()),
              cause, out);
}

void Broker::do_unsubscribe(Hop from, const SubscriptionId& id, TxnId cause,
                            Outputs& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kRouteUpdate);
  apply_delta(tables_.apply(RoutingMutation::remove_sub(id, from),
                            covering_policy()),
              cause, out);
}

void Broker::do_advertise(Hop from, const Advertisement& adv, TxnId cause,
                          Outputs& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kRouteUpdate);
  apply_delta(tables_.apply(RoutingMutation::add_adv(adv, from, flood_links()),
                            covering_policy()),
              cause, out);
}

void Broker::do_unadvertise(Hop from, const AdvertisementId& id, TxnId cause,
                            Outputs& out) {
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kRouteUpdate);
  apply_delta(tables_.apply(RoutingMutation::remove_adv(id, from),
                            covering_policy()),
              cause, out);
}

void Broker::do_publish(Hop from, const Publication& pub, TxnId cause,
                        Outputs& out, const obs::ProvenanceTag* in_tag) {
  // Root probe of the publish path: every stage below nests under it, so
  // its self time is exactly the unattributed ("other") publish-path cost.
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kPublish);
  if (pubs_processed_) pubs_processed_->inc();
  // Provenance: in-transit publications arrive tagged; origin publications
  // (from a local client or injected by the mobility layer) are stamped
  // here. Tags received from a peer are honoured even when this broker has
  // provenance disabled, so a mixed fleet still measures end to end.
  obs::ProvenanceTag origin_tag;
  const obs::ProvenanceTag* tag = in_tag;
  double now = 0.0;
  if (cfg_.obs.pub_provenance || tag != nullptr) {
    now = clock_ ? clock_() : 0.0;
    if (tag == nullptr) {
      origin_tag = obs::make_provenance(pub.id(), now, cfg_.obs.pub_trace_rate);
      tag = &origin_tag;
    }
  }
  // One matching pass answers everything: forwarding links, the matched
  // count (provenance, metrics and the load estimator share this single
  // definition — matching PRT entries, not a recount of distinct hops) and
  // the PRT version the match was computed against.
  const MatchResult mr = tables_.match(pub);
  if (tag != nullptr && tag->sampled) {
    TMPS_EVENT(tracer_, tag->trace, in_tag ? "pub:hop" : "pub:origin",
               {{"broker", std::to_string(id_)},
                {"pub", to_string(pub.id())},
                {"hop", std::to_string(tag->hops)},
                {"since_origin", fmt_secs(now - tag->origin_time)},
                {"hop_latency", fmt_secs(now - tag->last_hop_time)},
                {"matched", std::to_string(mr.matched)},
                {"prt_version", std::to_string(mr.version)},
                {"move_open",
                 control_ != nullptr && control_->movement_window_open()
                     ? "true"
                     : "false"}});
  }
  // Forwarded copies carry the tag advanced by one hop.
  std::optional<obs::ProvenanceTag> fwd;
  if (tag != nullptr) {
    fwd = *tag;
    if (fwd->hops < 255) ++fwd->hops;
    fwd->last_hop_time = now;
  }
  // Fan-out carries its own stage so hop-dispatch glue (branching, message
  // construction bookkeeping) is attributed rather than left in the
  // publish root's residual.
  TMPS_PROF_STAGE(prof_.get(), obs::Stage::kFanout);
  for (const Hop& hop : mr.links) {
    if (hop == from) continue;
    if (hop.is_broker()) {
      TMPS_PROF_STAGE(prof_.get(), obs::Stage::kEnqueue);
      Message m;
      m.id = next_message_id();
      m.cause = cause;
      m.prov = fwd;
      m.payload = PublishMsg{pub};
      out.emplace_back(hop.broker, std::move(m));
    } else if (hop.is_client()) {
      deliver_local(hop.client, pub, tag, now);
    }
  }
}

namespace {

template <typename Entry>
obs::EntrySnap snap_entry(const EntityId& id, const Entry& e) {
  obs::EntrySnap snap;
  snap.id = to_string(id);
  snap.filter = e.item.filter.to_string();
  snap.lasthop = e.lasthop.to_string();
  for (const Hop& h : e.forwarded_to) {
    snap.forwarded_to.push_back(h.to_string());
  }
  std::sort(snap.forwarded_to.begin(), snap.forwarded_to.end());
  if (e.shadow_lasthop.has_value()) {
    snap.has_shadow = true;
    snap.shadow_lasthop = e.shadow_lasthop->to_string();
    snap.shadow_txn = e.shadow_txn;
    snap.shadow_only = e.shadow_only;
  }
  return snap;
}

}  // namespace

void Broker::snapshot(obs::BrokerSnapshot& snap) const {
  snap.broker = id_;
  snap.sub_covering = cfg_.subscription_covering;
  snap.adv_covering = cfg_.advertisement_covering;
  for (const BrokerId n : overlay_->neighbors(id_)) {
    snap.neighbors.push_back(n);
  }
  for (const auto& [id, e] : tables_.prt()) {
    snap.prt.push_back(snap_entry(id, e));
  }
  for (const auto& [id, e] : tables_.srt()) {
    snap.srt.push_back(snap_entry(id, e));
  }
  // Deterministic order: the tables are unordered maps.
  auto by_id = [](const obs::EntrySnap& a, const obs::EntrySnap& b) {
    return a.id < b.id;
  };
  std::sort(snap.prt.begin(), snap.prt.end(), by_id);
  std::sort(snap.srt.begin(), snap.srt.end(), by_id);
  if (control_ != nullptr) control_->snapshot_into(snap);
}

std::string Broker::debug_string() const {
  return "B" + std::to_string(id_) + " " + tables_.debug_string();
}

}  // namespace tmps
