#include "core/mobility_engine.h"

#include <cassert>

namespace tmps {

const char* to_string(MobilityProtocol p) {
  switch (p) {
    case MobilityProtocol::Reconfiguration: return "reconfig";
    case MobilityProtocol::Traditional: return "covering";
  }
  return "?";
}

const char* to_string(SourceCoordState s) {
  switch (s) {
    case SourceCoordState::Init: return "init";
    case SourceCoordState::Wait: return "wait";
    case SourceCoordState::Prepare: return "prepare";
    case SourceCoordState::Abort: return "abort";
    case SourceCoordState::Commit: return "commit";
  }
  return "?";
}

const char* to_string(TargetCoordState s) {
  switch (s) {
    case TargetCoordState::Init: return "init";
    case TargetCoordState::Prepare: return "prepare";
    case TargetCoordState::Abort: return "abort";
    case TargetCoordState::Commit: return "commit";
  }
  return "?";
}

const char* to_string(MoveRefusal r) {
  switch (r) {
    case MoveRefusal::None: return "none";
    case MoveRefusal::UnknownClient: return "unknown-client";
    case MoveRefusal::InvalidTarget: return "invalid-target";
    case MoveRefusal::Busy: return "busy";
    case MoveRefusal::NotRunning: return "not-running";
  }
  return "?";
}

MobilityEngine::MobilityEngine(Broker& broker, RuntimeEnv& env,
                               MobilityConfig cfg)
    : broker_(&broker), env_(&env), tracer_(env.tracer()), cfg_(cfg) {
  broker_->set_control_handler(this);
}

BrokerId MobilityEngine::broker_id() const { return broker_->id(); }

TxnId MobilityEngine::next_txn_id() {
  return (static_cast<TxnId>(broker_->id()) << 40) | ++txn_seq_;
}

Hop MobilityEngine::toward(BrokerId other) const {
  return Hop::of_broker(broker_->overlay().next_hop(broker_->id(), other));
}

// --- client hosting ----------------------------------------------------------

ClientStub& MobilityEngine::connect_client(ClientId id) {
  auto stub = std::make_unique<ClientStub>(id);
  stub->set_delivery_fn([this, id](const Publication& pub) {
    if (delivery_) delivery_(id, pub, env_->now());
  });
  stub->create();
  stub->start();
  auto [it, inserted] = clients_.insert_or_assign(id, std::move(stub));
  (void)inserted;
  return *it->second;
}

ClientStub* MobilityEngine::find_client(ClientId id) {
  auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : it->second.get();
}

bool MobilityEngine::remove_client(ClientId id) {
  return clients_.erase(id) > 0;
}

const ClientStub* MobilityEngine::find_client(ClientId id) const {
  auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : it->second.get();
}

SubscriptionId MobilityEngine::subscribe(ClientId client, const Filter& f,
                                         Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub) return {};
  Subscription s{stub->allocate_id(), f};
  stub->remember_subscription(s);
  for (auto& o : broker_->client_subscribe(client, s)) {
    out.push_back(std::move(o));
  }
  return s.id;
}

AdvertisementId MobilityEngine::advertise(ClientId client, const Filter& f,
                                          Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub) return {};
  Advertisement a{stub->allocate_id(), f};
  stub->remember_advertisement(a);
  for (auto& o : broker_->client_advertise(client, a)) {
    out.push_back(std::move(o));
  }
  return a.id;
}

void MobilityEngine::unsubscribe(ClientId client, const SubscriptionId& id,
                                 Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub || !stub->forget_subscription(id)) return;
  for (auto& o : broker_->client_unsubscribe(client, id)) {
    out.push_back(std::move(o));
  }
}

void MobilityEngine::unadvertise(ClientId client, const AdvertisementId& id,
                                 Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub || !stub->forget_advertisement(id)) return;
  for (auto& o : broker_->client_unadvertise(client, id)) {
    out.push_back(std::move(o));
  }
}

void MobilityEngine::publish(ClientId client, Publication pub, Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub) return;
  if (pub.id().client == kNoClient) pub.set_id(stub->allocate_id());
  if (!stub->can_publish()) {
    // The stub layer queues application commands while the client moves.
    stub->queue_command(std::move(pub));
    return;
  }
  for (auto& o : broker_->client_publish(client, pub)) {
    out.push_back(std::move(o));
  }
}

void MobilityEngine::drain_commands(ClientStub& stub, Outputs& out) {
  for (auto& pub : stub.take_commands()) {
    for (auto& o : broker_->client_publish(stub.id(), pub)) {
      out.push_back(std::move(o));
    }
  }
}

// --- movement initiation (source side) ----------------------------------------

MoveStart MobilityEngine::try_initiate_move(ClientId client, BrokerId target,
                                            Outputs& out) {
  ClientStub* stub = find_client(client);
  if (!stub) return {kNoTxn, MoveRefusal::UnknownClient};
  if (target == broker_->id() || !broker_->overlay().contains(target)) {
    return {kNoTxn, MoveRefusal::InvalidTarget};
  }
  if (stub->state() != ClientState::Started &&
      stub->state() != ClientState::PauseOper) {
    // Distinguish "mid-movement" from "exists but never started / already
    // dismantled": a balancer retries the former and drops the latter.
    const bool moving = stub->state() == ClientState::PauseMove ||
                        stub->state() == ClientState::PrepareStop;
    return {kNoTxn, moving ? MoveRefusal::Busy : MoveRefusal::NotRunning};
  }

  const TxnId txn = next_txn_id();
  stub->begin_move();

  SourceMove sm;
  sm.txn = txn;
  sm.client = client;
  sm.target = target;
  sm.start = env_->now();
  sm.state = SourceCoordState::Wait;
  sm.protocol = cfg_.protocol;
  sm.move_span =
      TMPS_SPAN_BEGIN(tracer_, txn, "movement", obs::kNoSpan,
                      {{"client", std::to_string(client)},
                       {"source", std::to_string(broker_->id())},
                       {"target", std::to_string(target)},
                       {"protocol", to_string(cfg_.protocol)}});
  // Prepare phase: negotiate sent -> approve/ready (or reject) received.
  sm.phase_span =
      TMPS_SPAN_BEGIN(tracer_, txn, "phase:prepare", sm.move_span);

  if (cfg_.protocol == MobilityProtocol::Reconfiguration) {
    MoveNegotiateMsg m;
    m.txn = txn;
    m.client = client;
    m.source = broker_->id();
    m.target = target;
    m.subs = stub->subscriptions();
    m.advs = stub->advertisements();
    m.next_seq = stub->next_seq();
    broker_->send_unicast(target, std::move(m), txn, out);
  } else {
    // Traditional protocol (Sec. 4.4): the client "disconnects from its
    // source broker after unadvertising and unsubscribing its history, and
    // these messages propagate through the network" — with covering enabled
    // this un-quenches everything the removed subscriptions covered. Only
    // then does the target re-issue the profile.
    TradMoveRequestMsg m;
    m.txn = txn;
    m.client = client;
    m.source = broker_->id();
    m.target = target;
    m.subs = stub->subscriptions();
    m.advs = stub->advertisements();
    m.next_seq = stub->next_seq();

    // The whole profile retracts as one batch: the covering cascade is
    // computed per mutation as before, but forwarding-index maintenance is
    // coalesced across the burst (RoutingTables::apply_batch).
    const Hop ch = client_hop(client);
    std::vector<RoutingMutation> muts;
    muts.reserve(stub->subscriptions().size() +
                 stub->advertisements().size());
    for (const auto& s : stub->subscriptions()) {
      muts.push_back(RoutingMutation::remove_sub(s.id, ch));
    }
    for (const auto& a : stub->advertisements()) {
      muts.push_back(RoutingMutation::remove_adv(a.id, ch));
    }
    broker_->inject_batch(std::move(muts), txn, out);
    broker_->send_unicast(target, std::move(m), txn, out);
  }
  if (cfg_.negotiate_timeout > 0) arm_source_timer(sm, cfg_.negotiate_timeout);
  source_moves_.emplace(txn, std::move(sm));
  return {txn, MoveRefusal::None};
}

std::vector<ClientId> MobilityEngine::client_ids() const {
  std::vector<ClientId> ids;
  ids.reserve(clients_.size());
  for (const auto& [id, stub] : clients_) ids.push_back(id);
  return ids;
}

// --- ControlHandler ------------------------------------------------------------

void MobilityEngine::on_control(BrokerId from, const Message& msg,
                                std::vector<std::pair<BrokerId, Message>>& out) {
  const BrokerId self = broker_->id();

  // Hop-processed movement messages: every broker on the path participates.
  if (std::holds_alternative<MoveApproveMsg>(msg.payload)) {
    on_approve_hop(from, msg, out);
    return;
  }
  if (std::holds_alternative<MoveStateMsg>(msg.payload)) {
    on_state_hop(from, msg, out);
    return;
  }
  if (std::holds_alternative<MoveAbortMsg>(msg.payload)) {
    on_abort_hop(from, msg, out);
    return;
  }

  // Pure unicasts: relay until the destination.
  if (msg.unicast_dest && *msg.unicast_dest != self) {
    broker_->forward_unicast(msg, out);
    return;
  }

  if (const auto* p = std::get_if<MoveNegotiateMsg>(&msg.payload)) {
    on_negotiate(*p, msg.cause, out);
  } else if (const auto* p = std::get_if<MoveRejectMsg>(&msg.payload)) {
    on_reject(*p, out);
  } else if (const auto* p = std::get_if<MoveAckMsg>(&msg.payload)) {
    on_ack(*p, out);
  } else if (const auto* p = std::get_if<TradMoveRequestMsg>(&msg.payload)) {
    on_trad_request(*p, out);
  } else if (const auto* p = std::get_if<TradReadyMsg>(&msg.payload)) {
    on_trad_ready(*p, out);
  } else if (const auto* p = std::get_if<TradRejectMsg>(&msg.payload)) {
    on_trad_reject(*p, out);
  } else if (const auto* p = std::get_if<BufferedStateMsg>(&msg.payload)) {
    on_buffered_state(*p, out);
  } else if (const auto* p = std::get_if<RepairProbeMsg>(&msg.payload)) {
    on_repair_probe(*p, msg.cause, out);
  } else if (std::holds_alternative<RepairDigestMsg>(msg.payload) ||
             std::holds_alternative<RepairRequestMsg>(msg.payload) ||
             std::holds_alternative<RepairVerdictMsg>(msg.payload)) {
    if (repair_) repair_->on_repair(from, msg, out);
  } else if (std::holds_alternative<SessionOpenMsg>(msg.payload) ||
             std::holds_alternative<SessionResumeMsg>(msg.payload) ||
             std::holds_alternative<SessionAckMsg>(msg.payload) ||
             std::holds_alternative<SessionHeartbeatMsg>(msg.payload) ||
             std::holds_alternative<SessionCloseMsg>(msg.payload) ||
             std::holds_alternative<SessionForwardMsg>(msg.payload)) {
    if (session_) session_->on_session(from, msg, out);
  }
}

bool MobilityEngine::intercept_notification(ClientId client,
                                            const Publication& pub) {
  ClientStub* stub = find_client(client);
  if (!stub) return true;  // stale routing straggler; swallow
  stub->on_notification(pub);
  return true;
}

void MobilityEngine::snapshot_into(obs::BrokerSnapshot& snap) const {
  // Only in-flight transactions: terminal coordinator records stay in the
  // maps for post-mortem introspection but are not parked protocol state.
  for (const auto& [txn, m] : source_moves_) {
    if (m.state == SourceCoordState::Abort ||
        m.state == SourceCoordState::Commit) {
      continue;
    }
    snap.txns.push_back({txn, "source", to_string(m.state), m.client,
                         m.target});
  }
  for (const auto& [txn, m] : target_moves_) {
    if (m.state == TargetCoordState::Abort ||
        m.state == TargetCoordState::Commit) {
      continue;
    }
    snap.txns.push_back({txn, "target", to_string(m.state), m.client,
                         m.source});
  }
  for (const auto& [id, stub] : clients_) {
    snap.clients.push_back({id, to_string(stub->state()),
                            stub->buffered_count(), stub->queued_commands(),
                            stub->subscriptions().size(),
                            stub->advertisements().size()});
  }
}

// --- reconfiguration protocol ---------------------------------------------------

void MobilityEngine::on_negotiate(const MoveNegotiateMsg& m, TxnId cause,
                                  Outputs& out) {
  // Admission control: the target may refuse the client (overload,
  // authorization, ...), in which case the client stays at the source.
  if (!cfg_.accept_clients || clients_.size() >= cfg_.max_hosted_clients ||
      find_client(m.client) != nullptr) {
    TargetMove tm;
    tm.txn = m.txn;
    tm.client = m.client;
    tm.source = m.source;
    tm.state = TargetCoordState::Abort;  // Fig. 4: init -> abort on reject
    target_moves_.emplace(m.txn, std::move(tm));
    TMPS_EVENT(tracer_, m.txn, "movement:reject",
               {{"broker", std::to_string(broker_->id())},
                {"reason", "admission refused"}});
    MoveRejectMsg r;
    r.txn = m.txn;
    r.client = m.client;
    r.reason = "admission refused";
    broker_->send_unicast(m.source, std::move(r), cause, out);
    return;
  }

  // Create the (inactive) client copy at the target.
  auto stub = std::make_unique<ClientStub>(m.client);
  stub->set_delivery_fn([this, id = m.client](const Publication& pub) {
    if (delivery_) delivery_(id, pub, env_->now());
  });
  stub->create();
  for (const auto& s : m.subs) stub->remember_subscription(s);
  for (const auto& a : m.advs) stub->remember_advertisement(a);
  stub->set_next_seq(m.next_seq);
  clients_[m.client] = std::move(stub);

  TargetMove tm;
  tm.txn = m.txn;
  tm.client = m.client;
  tm.source = m.source;
  tm.start = env_->now();
  tm.state = TargetCoordState::Prepare;
  for (const auto& s : m.subs) tm.sub_ids.push_back(s.id);
  for (const auto& a : m.advs) tm.adv_ids.push_back(a.id);
  // Target-side precommit: shadow configuration installed and approve on its
  // way; ends when the state message (or an abort) arrives.
  tm.span = TMPS_SPAN_BEGIN(tracer_, m.txn, "phase:precommit", obs::kNoSpan,
                            {{"broker", std::to_string(broker_->id())}});

  // Approve: install the shadow configuration here, then send it hop-by-hop
  // towards the source (message (2) of Fig. 3).
  MoveApproveMsg ap;
  ap.txn = m.txn;
  ap.client = m.client;
  ap.source = m.source;
  ap.target = broker_->id();
  ap.subs = m.subs;
  ap.advs = m.advs;
  install_shadows(ap);

  Message wire;
  wire.id = broker_->next_message_id();
  wire.cause = cause;
  wire.unicast_dest = m.source;
  wire.payload = std::move(ap);
  out.emplace_back(broker_->overlay().next_hop(broker_->id(), m.source),
                   std::move(wire));

  if (cfg_.prepare_timeout > 0) arm_target_timer(tm, cfg_.prepare_timeout);
  target_moves_.emplace(m.txn, std::move(tm));
}

void MobilityEngine::install_shadows(const MoveApproveMsg& m) {
  const BrokerId self = broker_->id();
  const Hop new_hop = (self == m.target)
                          ? Hop::of_client(m.client)
                          : toward(m.target);
  // Shadow installs for fresh entries file into the forwarding index; batch
  // the whole profile's worth.
  RoutingTables& rt = broker_->tables();
  RoutingTables::MutationBatch batch(rt);
  for (const auto& s : m.subs) rt.prt().install_shadow(s, new_hop, m.txn);
  for (const auto& a : m.advs) rt.srt().install_shadow(a, new_hop, m.txn);
}

void MobilityEngine::on_approve_hop(BrokerId from, const Message& msg,
                                    Outputs& out) {
  (void)from;
  const auto& m = std::get<MoveApproveMsg>(msg.payload);
  const BrokerId self = broker_->id();

  if (self != m.source) {
    install_shadows(m);
    // One hop of the target->source approve leg of the reconfiguration path.
    TMPS_EVENT(tracer_, m.txn, "hop:approve",
               {{"broker", std::to_string(self)}});
    broker_->forward_unicast(msg, out);
    return;
  }

  // Source coordinator.
  auto it = source_moves_.find(m.txn);
  if (it == source_moves_.end() ||
      it->second.state != SourceCoordState::Wait) {
    // The transaction was aborted here (e.g. negotiate timeout). Unwind the
    // shadow configuration the approve installed along the path.
    MoveAbortMsg ab;
    ab.txn = m.txn;
    ab.client = m.client;
    ab.source = m.source;
    ab.target = m.target;
    for (const auto& s : m.subs) ab.sub_ids.push_back(s.id);
    for (const auto& a : m.advs) ab.adv_ids.push_back(a.id);
    broker_->send_unicast(m.target, std::move(ab), msg.cause, out);
    return;
  }
  SourceMove& sm = it->second;
  ++sm.timer_gen;  // cancel the negotiate timeout

  TMPS_EVENT(tracer_, m.txn, "hop:approve",
             {{"broker", std::to_string(self)}});
  TMPS_SPAN_END(tracer_, sm.phase_span, {{"outcome", "approved"}});
  // Commit phase: state sent hop-by-hop towards the target -> ack received.
  sm.phase_span =
      TMPS_SPAN_BEGIN(tracer_, m.txn, "phase:commit", sm.move_span);

  install_shadows(m);

  ClientStub* stub = find_client(m.client);
  assert(stub);
  stub->prepare_stop();

  MoveStateMsg st;
  st.txn = m.txn;
  st.client = m.client;
  st.source = m.source;
  st.target = m.target;
  st.queued_notifications = stub->take_buffer();
  st.queued_commands = stub->take_commands();
  for (const auto& s : m.subs) st.sub_ids.push_back(s.id);
  for (const auto& a : m.advs) st.adv_ids.push_back(a.id);

  // Commit at the source immediately: from this instant publications route
  // towards the target, and anything that arrived earlier is in the buffer
  // we just took.
  commit_shadows_here(st, out);

  sm.state = SourceCoordState::Prepare;
  sm.pending_state = st;  // kept for idempotent retry on prepare timeout

  Message wire;
  wire.id = broker_->next_message_id();
  wire.cause = msg.cause;
  wire.unicast_dest = m.target;
  wire.payload = std::move(st);
  out.emplace_back(broker_->overlay().next_hop(self, m.target),
                   std::move(wire));
  if (cfg_.prepare_timeout > 0) arm_source_timer(sm, cfg_.prepare_timeout);
}

void MobilityEngine::commit_shadows_here(const MoveStateMsg& m, Outputs& out) {
  const BrokerId self = broker_->id();
  RoutingTables& rt = broker_->tables();
  const bool at_source = (self == m.source);

  // Commits `id`'s shadow for this transaction; null when it has none.
  const auto commit = [&](auto& table,
                          const EntityId& id) -> decltype(table.find(id)) {
    auto* e = table.find(id);
    if (!e || e->shadow_txn != m.txn) return nullptr;
    table.commit_shadow(id, m.txn);
    // Post-move the item arrives from the target side, so it is no longer
    // "forwarded" in that direction — and it now flows towards the source
    // side instead.
    e->forwarded_to.erase(e->lasthop);
    if (!at_source) e->forwarded_to.insert(toward(m.source));
    return e;
  };
  for (const auto& id : m.sub_ids) commit(rt.prt(), id);
  for (const auto& id : m.adv_ids) {
    // Sec. 4.4's three PRT cases: other clients' subscriptions must now be
    // routed towards the advertisement's new position.
    if (const AdvEntry* e = commit(rt.srt(), id)) {
      fix_prt_for_moved_adv(e->item, m.target, m.txn, out);
    }
  }
}

void MobilityEngine::fix_prt_for_moved_adv(const Advertisement& adv,
                                           BrokerId target, TxnId cause,
                                           Outputs& out) {
  const BrokerId self = broker_->id();
  RoutingTables& rt = broker_->tables();
  const Hop suc = (self == target) ? Hop::of_client(adv.id.client)
                                   : toward(target);
  const ClientId mover = adv.id.client;

  // Collect first: case 2 erases entries while we iterate. The candidate
  // set comes from the covering index (PRT intersecting) instead of a PRT
  // scan — this hand-off runs once per moved advertisement per path broker,
  // squarely on the movement hot path.
  std::vector<SubscriptionId> intersecting;
  for (const SubEntry* s : rt.prt().intersecting(adv.filter)) {
    if (s->shadow_only) continue;
    // The mover's own subscriptions have their own shadow reconfiguration.
    if (s->item.id.client == mover) continue;
    intersecting.push_back(s->item.id);
  }

  for (const auto& sid : intersecting) {
    SubEntry* s = rt.prt().find(sid);
    if (!s) continue;
    if (s->lasthop == suc) {
      // Case 2: the subscription came from the target direction; it is
      // satisfied closer to the new publisher position. Drop it here unless
      // some other advertisement still needs it (index-backed SRT probe).
      bool needed = false;
      for (const AdvEntry* a : rt.srt().intersecting(s->item.filter)) {
        if (a->item.id != adv.id) {
          needed = true;
          break;
        }
      }
      if (!needed) rt.prt().erase(sid);
      continue;
    }
    // Cases 1 and 3: the subscription must reach the advertisement's new
    // last hop if it has not been forwarded there already.
    if (suc.is_broker() && !s->forwarded_to.contains(suc)) {
      s->forwarded_to.insert(suc);
      Message wire;
      wire.id = broker_->next_message_id();
      wire.cause = cause;
      wire.payload = SubscribeMsg{s->item};
      out.emplace_back(suc.broker, std::move(wire));
    }
  }
}

void MobilityEngine::on_state_hop(BrokerId from, const Message& msg,
                                  Outputs& out) {
  (void)from;
  const auto& m = std::get<MoveStateMsg>(msg.payload);
  const BrokerId self = broker_->id();

  commit_shadows_here(m, out);
  // One hop of the source->target state (commit) leg.
  TMPS_EVENT(tracer_, m.txn, "hop:state", {{"broker", std::to_string(self)}});

  if (self != m.target) {
    broker_->forward_unicast(msg, out);
    return;
  }

  // Target coordinator: hand-off complete; activate the client copy.
  auto it = target_moves_.find(m.txn);
  if (it == target_moves_.end()) return;  // duplicate state (retry); ignore
  TargetMove& tm = it->second;
  if (tm.state == TargetCoordState::Prepare) {
    ++tm.timer_gen;
    ClientStub* stub = find_client(m.client);
    assert(stub);
    stub->merge_notifications(m.queued_notifications);
    stub->start();
    for (const auto& cmd : m.queued_commands) stub->queue_command(cmd);
    drain_commands(*stub, out);
    tm.state = TargetCoordState::Commit;
    TMPS_SPAN_END(tracer_, tm.span, {{"outcome", "commit"}});
    tm.span = obs::kNoSpan;
  }
  MoveAckMsg ack;
  ack.txn = m.txn;
  ack.client = m.client;
  broker_->send_unicast(m.source, std::move(ack), msg.cause, out);
}

void MobilityEngine::on_ack(const MoveAckMsg& m, Outputs& out) {
  auto it = source_moves_.find(m.txn);
  if (it == source_moves_.end() ||
      it->second.state != SourceCoordState::Prepare) {
    return;  // duplicate ack
  }
  SourceMove& sm = it->second;
  ClientStub* stub = find_client(m.client);
  if (stub) {
    // Commands issued between the prepare-time state snapshot and this ack
    // queued into the lingering source stub; ship them to the (already
    // started) target incarnation instead of dropping them with the stub.
    std::vector<Publication> late = stub->take_commands();
    if (!late.empty()) {
      BufferedStateMsg bs;
      bs.txn = m.txn;
      bs.client = m.client;
      bs.queued_commands = std::move(late);
      broker_->send_unicast(sm.target, std::move(bs), m.txn, out);
    }
    stub->clean();
    clients_.erase(m.client);
  }
  finish_source_move(sm, /*committed=*/true, out);
}

void MobilityEngine::on_reject(const MoveRejectMsg& m, Outputs& out) {
  auto it = source_moves_.find(m.txn);
  if (it == source_moves_.end() || it->second.state != SourceCoordState::Wait) {
    return;
  }
  SourceMove& sm = it->second;
  ClientStub* stub = find_client(m.client);
  if (stub) {
    stub->resume_from_reject();
    drain_commands(*stub, out);
  }
  finish_source_move(sm, /*committed=*/false, out);
}

void MobilityEngine::on_abort_hop(BrokerId from, const Message& msg,
                                  Outputs& out) {
  (void)from;
  const auto& m = std::get<MoveAbortMsg>(msg.payload);
  const BrokerId self = broker_->id();

  abort_shadows_here(m);
  TMPS_EVENT(tracer_, m.txn, "hop:abort", {{"broker", std::to_string(self)}});

  if (msg.unicast_dest && *msg.unicast_dest != self) {
    broker_->forward_unicast(msg, out);
    return;
  }

  if (self == m.target) {
    auto it = target_moves_.find(m.txn);
    if (it != target_moves_.end() &&
        it->second.state == TargetCoordState::Prepare) {
      ++it->second.timer_gen;
      it->second.state = TargetCoordState::Abort;
      TMPS_SPAN_END(tracer_, it->second.span, {{"outcome", "abort"}});
      it->second.span = obs::kNoSpan;
      ClientStub* stub = find_client(m.client);
      if (stub && stub->state() == ClientState::Created) {
        stub->clean();
        clients_.erase(m.client);
      }
    }
  } else if (self == m.source) {
    auto it = source_moves_.find(m.txn);
    if (it != source_moves_.end() &&
        (it->second.state == SourceCoordState::Wait ||
         it->second.state == SourceCoordState::Prepare)) {
      ClientStub* stub = find_client(m.client);
      if (stub) {
        stub->resume_from_abort();
        drain_commands(*stub, out);
      }
      finish_source_move(it->second, /*committed=*/false, out);
    }
  }
}

void MobilityEngine::abort_shadows_here(const MoveAbortMsg& m) {
  RoutingTables& rt = broker_->tables();
  // Aborting shadow-only entries erases them from the forwarding index too;
  // coalesce the burst.
  RoutingTables::MutationBatch batch(rt);
  for (const auto& id : m.sub_ids) rt.prt().abort_shadow(id, m.txn);
  for (const auto& id : m.adv_ids) rt.srt().abort_shadow(id, m.txn);
}

void MobilityEngine::finish_source_move(SourceMove& sm, bool committed,
                                        Outputs& out) {
  (void)out;
  ++sm.timer_gen;
  sm.state = committed ? SourceCoordState::Commit : SourceCoordState::Abort;

  MovementRecord rec;
  rec.txn = sm.txn;
  rec.client = sm.client;
  rec.source = broker_->id();
  rec.target = sm.target;
  rec.start = sm.start;
  rec.end = env_->now();
  rec.committed = committed;

  const char* outcome = committed ? "commit" : "abort";
  TMPS_SPAN_END(tracer_, sm.phase_span);  // whichever phase was running
  sm.phase_span = obs::kNoSpan;
  TMPS_SPAN_END(tracer_, sm.move_span, {{"outcome", outcome}});
  sm.move_span = obs::kNoSpan;
  if (obs::MetricsRegistry* mr = env_->metrics()) {
    mr->histogram("movement_latency_seconds",
                  {{"protocol", to_string(sm.protocol)}, {"outcome", outcome}})
        .observe(rec.duration());
    mr->counter("movements_total",
                {{"protocol", to_string(sm.protocol)}, {"outcome", outcome}})
        .inc();
  }

  if (!committed) {
    // Post-mortem context for the abort: the source broker's last-N events.
    broker_->dump_flight("movement-abort txn=" + std::to_string(sm.txn));
  }

  env_->movement_finished(rec);
  if (move_cb_) move_cb_(rec);
}

// --- timeouts (non-blocking variant; requires the bounded-delay network
// assumption the paper states for 3PC) ------------------------------------------

void MobilityEngine::arm_source_timer(SourceMove& sm, double delay) {
  const std::uint64_t gen = ++sm.timer_gen;
  const TxnId txn = sm.txn;
  const SourceCoordState expected = sm.state;
  env_->schedule(delay, [this, txn, gen, expected] {
    auto it = source_moves_.find(txn);
    if (it == source_moves_.end() || it->second.timer_gen != gen) return;
    if (it->second.state != expected) return;
    source_timeout(txn, expected);
  });
}

void MobilityEngine::source_timeout(TxnId txn, SourceCoordState expected) {
  auto it = source_moves_.find(txn);
  if (it == source_moves_.end()) return;
  SourceMove& sm = it->second;
  Outputs out;
  TMPS_EVENT(tracer_, txn, "timeout",
             {{"broker", std::to_string(broker_->id())},
              {"state", to_string(expected)}});
  if (expected == SourceCoordState::Wait) {
    // Negotiate/approve lost or slow: abort; if an approve arrives later the
    // source answers it with an abort that unwinds the shadow state.
    ClientStub* stub = find_client(sm.client);
    if (stub) {
      stub->resume_from_abort();
      drain_commands(*stub, out);
    }
    finish_source_move(sm, /*committed=*/false, out);
  } else if (expected == SourceCoordState::Prepare && sm.pending_state) {
    // Ack lost or slow: retransmit the (idempotent) state message.
    retransmit_pending_state(sm, out);
    arm_source_timer(sm, cfg_.prepare_timeout);
  }
  if (transmit_ && !out.empty()) transmit_(std::move(out));
}

void MobilityEngine::arm_target_timer(TargetMove& tm, double delay) {
  const std::uint64_t gen = ++tm.timer_gen;
  const TxnId txn = tm.txn;
  env_->schedule(delay, [this, txn, gen] {
    auto it = target_moves_.find(txn);
    if (it == target_moves_.end() || it->second.timer_gen != gen) return;
    if (it->second.state != TargetCoordState::Prepare) return;
    target_timeout(txn);
  });
}

void MobilityEngine::target_timeout(TxnId txn) {
  auto it = target_moves_.find(txn);
  if (it == target_moves_.end()) return;
  TargetMove& tm = it->second;
  Outputs out;

  // Conservative resolution: abort towards the source, unwinding shadow
  // state along the path. The client is never lost: its primary copy is
  // still at the source.
  TMPS_EVENT(tracer_, txn, "timeout",
             {{"broker", std::to_string(broker_->id())},
              {"state", "prepare"}});
  tm.state = TargetCoordState::Abort;
  TMPS_SPAN_END(tracer_, tm.span, {{"outcome", "abort"}});
  tm.span = obs::kNoSpan;
  ClientStub* stub = find_client(tm.client);
  if (stub && stub->state() == ClientState::Created) {
    stub->clean();
    clients_.erase(tm.client);
  }
  MoveAbortMsg ab;
  ab.txn = tm.txn;
  ab.client = tm.client;
  ab.source = tm.source;
  ab.target = broker_->id();
  ab.sub_ids = tm.sub_ids;
  ab.adv_ids = tm.adv_ids;
  abort_shadows_here(ab);
  Message wire;
  wire.id = broker_->next_message_id();
  wire.cause = tm.txn;
  wire.unicast_dest = tm.source;
  wire.payload = std::move(ab);
  out.emplace_back(broker_->overlay().next_hop(broker_->id(), tm.source),
                   std::move(wire));
  if (transmit_) transmit_(std::move(out));
}

// --- traditional (covering-based) protocol ---------------------------------------

void MobilityEngine::on_trad_request(const TradMoveRequestMsg& m,
                                     Outputs& out) {
  if (!cfg_.accept_clients || clients_.size() >= cfg_.max_hosted_clients ||
      find_client(m.client) != nullptr) {
    TargetMove tm;
    tm.txn = m.txn;
    tm.client = m.client;
    tm.source = m.source;
    tm.state = TargetCoordState::Abort;
    target_moves_.emplace(m.txn, std::move(tm));
    TMPS_EVENT(tracer_, m.txn, "movement:reject",
               {{"broker", std::to_string(broker_->id())},
                {"reason", "admission refused"}});
    TradRejectMsg r;
    r.txn = m.txn;
    r.client = m.client;
    r.reason = "admission refused";
    broker_->send_unicast(m.source, std::move(r), m.txn, out);
    return;
  }

  auto stub = std::make_unique<ClientStub>(m.client);
  stub->set_delivery_fn([this, id = m.client](const Publication& pub) {
    if (delivery_) delivery_(id, pub, env_->now());
  });
  stub->create();
  stub->set_next_seq(m.next_seq);
  ClientStub& ref = *stub;
  clients_[m.client] = std::move(stub);

  TargetMove tm;
  tm.txn = m.txn;
  tm.client = m.client;
  tm.source = m.source;
  tm.start = env_->now();
  tm.state = TargetCoordState::Prepare;
  // Target-side work of the traditional protocol: re-issuing the profile
  // (and its covering cascade) until the buffered state arrives.
  tm.span = TMPS_SPAN_BEGIN(tracer_, m.txn, "phase:precommit", obs::kNoSpan,
                            {{"broker", std::to_string(broker_->id())}});
  target_moves_.emplace(m.txn, std::move(tm));

  // Re-issue the client's profile as ordinary pub/sub operations with fresh
  // incarnations — the end-to-end propagation (and, with covering enabled,
  // its quench/retract cascades) is the cost the paper measures.
  const Hop ch = Hop::of_client(m.client);
  std::vector<RoutingMutation> muts;
  muts.reserve(m.advs.size() + m.subs.size());
  for (const auto& a : m.advs) {
    Advertisement na{ref.allocate_id(), a.filter};
    ref.remember_advertisement(na);
    muts.push_back(RoutingMutation::add_adv(na, ch));
  }
  for (const auto& s : m.subs) {
    Subscription ns{ref.allocate_id(), s.filter};
    ref.remember_subscription(ns);
    muts.push_back(RoutingMutation::add_sub(ns, ch));
  }
  broker_->inject_batch(std::move(muts), m.txn, out);

  TradReadyMsg rdy;
  rdy.txn = m.txn;
  rdy.client = m.client;
  broker_->send_unicast(m.source, std::move(rdy), m.txn, out);
}

void MobilityEngine::on_trad_ready(const TradReadyMsg& m, Outputs& out) {
  auto it = source_moves_.find(m.txn);
  if (it == source_moves_.end() || it->second.state != SourceCoordState::Wait) {
    return;
  }
  SourceMove& sm = it->second;
  ClientStub* stub = find_client(m.client);
  assert(stub);

  stub->prepare_stop();

  // The old incarnations were already retracted when the movement started;
  // ship the buffered notifications and dismantle the source copy.
  BufferedStateMsg bs;
  bs.txn = m.txn;
  bs.client = m.client;
  bs.queued_notifications = stub->take_buffer();
  bs.queued_commands = stub->take_commands();
  broker_->send_unicast(sm.target, std::move(bs), m.txn, out);

  stub->clean();
  clients_.erase(m.client);
  sm.state = SourceCoordState::Prepare;
  TMPS_SPAN_END(tracer_, sm.phase_span, {{"outcome", "ready"}});
  // Commit phase of the traditional protocol: waiting for the movement's
  // entire causal message chain (covering cascade included) to drain.
  sm.phase_span =
      TMPS_SPAN_BEGIN(tracer_, m.txn, "phase:commit", sm.move_span);

  // The movement completes when every message it caused — including the
  // covering cascade — has been processed network-wide.
  const TxnId txn = m.txn;
  env_->on_cause_drained(txn, [this, txn] {
    auto sit = source_moves_.find(txn);
    if (sit == source_moves_.end() ||
        sit->second.state != SourceCoordState::Prepare) {
      return;
    }
    Outputs none;
    finish_source_move(sit->second, /*committed=*/true, none);
  });
}

void MobilityEngine::on_trad_reject(const TradRejectMsg& m, Outputs& out) {
  auto it = source_moves_.find(m.txn);
  if (it == source_moves_.end() || it->second.state != SourceCoordState::Wait) {
    return;
  }
  ClientStub* stub = find_client(m.client);
  if (stub) {
    // The source already retracted the client's profile when the movement
    // started; the end-to-end protocol must re-issue everything to undo.
    const Hop ch = client_hop(m.client);
    std::vector<RoutingMutation> muts;
    muts.reserve(stub->advertisements().size() +
                 stub->subscriptions().size());
    for (const auto& a : stub->advertisements()) {
      muts.push_back(RoutingMutation::add_adv(a, ch));
    }
    for (const auto& s : stub->subscriptions()) {
      muts.push_back(RoutingMutation::add_sub(s, ch));
    }
    broker_->inject_batch(std::move(muts), m.txn, out);
    stub->resume_from_reject();
    drain_commands(*stub, out);
  }
  finish_source_move(it->second, /*committed=*/false, out);
}

void MobilityEngine::on_buffered_state(const BufferedStateMsg& m,
                                       Outputs& out) {
  auto it = target_moves_.find(m.txn);
  if (it == target_moves_.end()) return;
  TargetMove& tm = it->second;
  ClientStub* stub = find_client(m.client);
  if (!stub) return;
  if (tm.state == TargetCoordState::Commit) {
    // Late commands the source absorbed between its prepare-time snapshot
    // and our ack (reconfiguration path): replay them here.
    for (const auto& cmd : m.queued_commands) stub->queue_command(cmd);
    drain_commands(*stub, out);
    return;
  }
  if (tm.state != TargetCoordState::Prepare) return;
  stub->merge_notifications(m.queued_notifications);
  stub->start();
  for (const auto& cmd : m.queued_commands) stub->queue_command(cmd);
  drain_commands(*stub, out);
  tm.state = TargetCoordState::Commit;
  TMPS_SPAN_END(tracer_, tm.span, {{"outcome", "commit"}});
  tm.span = obs::kNoSpan;
}

// --- anti-entropy repair ---------------------------------------------------------

RepairVerdictMsg MobilityEngine::resolve_txn(TxnId txn) const {
  RepairVerdictMsg v;
  v.txn = txn;
  v.source = broker_->id();
  auto it = source_moves_.find(txn);
  if (it == source_moves_.end()) {
    // No coordinator record: the transaction never started here (or this is
    // not its coordinator). Nothing can ever commit it, so residual state
    // elsewhere is safe to unwind.
    v.verdict = RepairVerdict::Aborted;
    return v;
  }
  const SourceMove& sm = it->second;
  v.target = sm.target;
  v.client = sm.client;
  switch (sm.state) {
    case SourceCoordState::Init:
    case SourceCoordState::Wait:
    case SourceCoordState::Prepare:
      // Prepare is past the commit point (the source already committed its
      // shadows); the retransmission path, not a verdict, resolves it.
      v.verdict = RepairVerdict::InFlight;
      break;
    case SourceCoordState::Commit:
      v.verdict = RepairVerdict::Committed;
      break;
    case SourceCoordState::Abort:
      v.verdict = RepairVerdict::Aborted;
      break;
  }
  return v;
}

void MobilityEngine::retransmit_pending_state(const SourceMove& sm,
                                              Outputs& out) {
  Message wire;
  wire.id = broker_->next_message_id();
  wire.cause = sm.txn;
  wire.unicast_dest = sm.target;
  wire.payload = *sm.pending_state;
  out.emplace_back(broker_->overlay().next_hop(broker_->id(), sm.target),
                   std::move(wire));
}

void MobilityEngine::on_repair_probe(const RepairProbeMsg& p, TxnId cause,
                                     Outputs& out) {
  RepairVerdictMsg v = resolve_txn(p.txn);
  // A coordinator parked past its commit point holds the idempotent state
  // message; the probe doubles as a retransmission request, re-driving the
  // lost commit leg end-to-end (the target re-acks when it lands).
  auto it = source_moves_.find(p.txn);
  if (it != source_moves_.end() &&
      it->second.state == SourceCoordState::Prepare &&
      it->second.pending_state) {
    retransmit_pending_state(it->second, out);
  }
  TMPS_EVENT(tracer_, p.txn, "repair:probe",
             {{"broker", std::to_string(broker_->id())},
              {"asker", std::to_string(p.asker)},
              {"verdict", to_string(v.verdict)}});
  if (p.asker != kNoBroker && p.asker != broker_->id()) {
    broker_->send_unicast(p.asker, std::move(v), cause, out);
  }
}

void MobilityEngine::repair_resolve_txn(const RepairVerdictMsg& v,
                                        Outputs& out) {
  if (v.verdict == RepairVerdict::InFlight) return;
  RoutingTables& rt = broker_->tables();
  std::vector<SubscriptionId> subs;
  std::vector<AdvertisementId> advs;
  for (const auto& [id, e] : rt.prt()) {
    if (e.shadow_txn == v.txn) subs.push_back(id);
  }
  for (const auto& [id, e] : rt.srt()) {
    if (e.shadow_txn == v.txn) advs.push_back(id);
  }

  if (v.verdict == RepairVerdict::Committed) {
    // Re-run the hop-local commit hand-off over whatever shadows remain.
    MoveStateMsg m;
    m.txn = v.txn;
    m.client = v.client;
    m.source = v.source;
    m.target = v.target;
    m.sub_ids = std::move(subs);
    m.adv_ids = std::move(advs);
    commit_shadows_here(m, out);
    // A target parked in precommit with a Committed verdict is the
    // traditional protocol's lost buffered-state hand-off: the source
    // already dismantled its copy, so activate the target copy without the
    // buffered notifications (bounded loss; the routing state is whole).
    auto it = target_moves_.find(v.txn);
    if (it != target_moves_.end() &&
        it->second.state == TargetCoordState::Prepare) {
      TargetMove& tm = it->second;
      ++tm.timer_gen;
      tm.state = TargetCoordState::Commit;
      TMPS_SPAN_END(tracer_, tm.span, {{"outcome", "repair-commit"}});
      tm.span = obs::kNoSpan;
      ClientStub* stub = find_client(tm.client);
      if (stub && stub->state() == ClientState::Created) {
        stub->start();
        drain_commands(*stub, out);
      }
    }
    return;
  }

  // Aborted: unwind residual shadows, then dismantle a parked target-side
  // precommit (reconfig: drop the inactive client copy; traditional: also
  // retract the re-issued profile, which lives as primary entries).
  MoveAbortMsg ab;
  ab.txn = v.txn;
  ab.client = v.client;
  ab.source = v.source;
  ab.target = v.target;
  ab.sub_ids = std::move(subs);
  ab.adv_ids = std::move(advs);
  abort_shadows_here(ab);
  auto it = target_moves_.find(v.txn);
  if (it != target_moves_.end() &&
      it->second.state == TargetCoordState::Prepare) {
    TargetMove& tm = it->second;
    ++tm.timer_gen;
    tm.state = TargetCoordState::Abort;
    TMPS_SPAN_END(tracer_, tm.span, {{"outcome", "repair-abort"}});
    tm.span = obs::kNoSpan;
    ClientStub* stub = find_client(tm.client);
    if (stub && stub->state() == ClientState::Created) {
      const Hop ch = client_hop(tm.client);
      std::vector<RoutingMutation> muts;
      for (const auto& s : stub->subscriptions()) {
        muts.push_back(RoutingMutation::remove_sub(s.id, ch));
      }
      for (const auto& a : stub->advertisements()) {
        muts.push_back(RoutingMutation::remove_adv(a.id, ch));
      }
      if (!muts.empty()) broker_->inject_batch(std::move(muts), v.txn, out);
      stub->clean();
      clients_.erase(tm.client);
    }
  }
}

void MobilityEngine::abort_parked_source(SourceMove& sm, Outputs& out) {
  TMPS_EVENT(tracer_, sm.txn, "repair:parked-abort",
             {{"broker", std::to_string(broker_->id())},
              {"state", to_string(sm.state)}});
  ClientStub* stub = find_client(sm.client);
  if (stub) {
    if (sm.protocol == MobilityProtocol::Traditional) {
      // The profile was retracted when the movement started; the end-to-end
      // protocol must re-issue everything to undo (on_trad_reject's path).
      const Hop ch = client_hop(sm.client);
      std::vector<RoutingMutation> muts;
      muts.reserve(stub->advertisements().size() +
                   stub->subscriptions().size());
      for (const auto& a : stub->advertisements()) {
        muts.push_back(RoutingMutation::add_adv(a, ch));
      }
      for (const auto& s : stub->subscriptions()) {
        muts.push_back(RoutingMutation::add_sub(s, ch));
      }
      broker_->inject_batch(std::move(muts), sm.txn, out);
    } else {
      // Unwind whatever part of the approve leg did land: the abort is
      // hop-processed towards the target and a no-op where nothing is
      // installed. Brokers the abort cannot reach heal via their own
      // probes (this coordinator now answers Aborted).
      MoveAbortMsg ab;
      ab.txn = sm.txn;
      ab.client = sm.client;
      ab.source = broker_->id();
      ab.target = sm.target;
      for (const auto& s : stub->subscriptions()) ab.sub_ids.push_back(s.id);
      for (const auto& a : stub->advertisements()) {
        ab.adv_ids.push_back(a.id);
      }
      broker_->send_unicast(sm.target, std::move(ab), sm.txn, out);
    }
    stub->resume_from_abort();
    drain_commands(*stub, out);
  }
  finish_source_move(sm, /*committed=*/false, out);
}

std::size_t MobilityEngine::repair_sweep_parked(double stale_after,
                                                Outputs& out) {
  const SimTime now = env_->now();
  std::size_t ops = 0;
  for (auto& [txn, sm] : source_moves_) {
    if (now - sm.start < stale_after) continue;
    if (sm.state == SourceCoordState::Wait) {
      // Negotiate / approve / ready lost while this coordinator blocks
      // (timeouts disabled): nothing downstream can have committed, so
      // abort and resume the client at the source.
      abort_parked_source(sm, out);
      ++ops;
    } else if (sm.state == SourceCoordState::Prepare && sm.pending_state) {
      // Past the commit point with the ack missing: retransmit the
      // idempotent state message — never abort.
      TMPS_EVENT(tracer_, txn, "repair:retransmit-state",
                 {{"broker", std::to_string(broker_->id())}});
      retransmit_pending_state(sm, out);
      ++ops;
    }
  }
  for (auto& [txn, tm] : target_moves_) {
    if (tm.state != TargetCoordState::Prepare) continue;
    if (now - tm.start < stale_after) continue;
    // Parked precommit: ask the source coordinator how the transaction
    // resolved. Never abort unilaterally — the source may be past its
    // commit point with the state message lost in flight.
    TMPS_EVENT(tracer_, txn, "repair:probe-parked",
               {{"broker", std::to_string(broker_->id())},
                {"source", std::to_string(tm.source)}});
    RepairProbeMsg p;
    p.txn = txn;
    p.asker = broker_->id();
    broker_->send_unicast(tm.source, p, txn, out);
    ++ops;
  }
  return ops;
}

// --- introspection ---------------------------------------------------------------

std::optional<SourceCoordState> MobilityEngine::source_state(TxnId txn) const {
  auto it = source_moves_.find(txn);
  if (it == source_moves_.end()) return std::nullopt;
  return it->second.state;
}

std::optional<TargetCoordState> MobilityEngine::target_state(TxnId txn) const {
  auto it = target_moves_.find(txn);
  if (it == target_moves_.end()) return std::nullopt;
  return it->second.state;
}

}  // namespace tmps
