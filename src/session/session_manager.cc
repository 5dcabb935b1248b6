#include "session/session_manager.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tmps::session {

namespace {

/// Byte cap on a session's disconnected-operation buffer (encoded wire
/// size); the notification-count cap is SessionConfig::buffer_max_count.
constexpr std::size_t kBufferMaxBytes = 256 * 1024;

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::Active: return "active";
    case SessionState::Detached: return "detached";
    case SessionState::Moving: return "moving";
    case SessionState::Forwarding: return "forwarding";
    case SessionState::Attached: return "attached";
    case SessionState::Expired: return "expired";
  }
  return "?";
}

SessionManager::SessionManager(MobilityEngine& engine, RuntimeEnv& env,
                               SessionConfig cfg)
    : engine_(&engine),
      broker_(&engine.broker()),
      env_(&env),
      tracer_(env.tracer()),
      cfg_(cfg) {
  if (obs::MetricsRegistry* mr = env_->metrics()) {
    const std::string id = std::to_string(broker_->id());
    dropped_overflow_ctr_ = &mr->counter(
        "tmps_session_dropped_total", {{"broker", id}, {"reason", "overflow"}});
    dropped_expiry_ctr_ = &mr->counter(
        "tmps_session_dropped_total", {{"broker", id}, {"reason", "expiry"}});
    resumes_ctr_ =
        &mr->counter("tmps_session_resumes_total", {{"broker", id}});
    sessions_gauge_ = &mr->gauge("tmps_sessions_active", {{"broker", id}});
    buffered_bytes_gauge_ =
        &mr->gauge("tmps_session_buffered_bytes", {{"broker", id}});
  }
}

BrokerId SessionManager::broker_id() const { return broker_->id(); }

double SessionManager::now() const { return env_->now(); }

void SessionManager::start(double first, double until) {
  until_ = until;
  schedule_next(first);
}

void SessionManager::schedule_next(double delay) {
  env_->schedule(delay, [this] {
    if (env_->now() > until_) return;
    tick();
    schedule_next(cfg_.tick_interval);
  });
}

// --- client-facing API -------------------------------------------------------

SessionToken SessionManager::open(ClientId client,
                                  std::optional<Publication> will) {
  ClientStub* stub = engine_->find_client(client);
  if (!stub) return kNoToken;
  Session s;
  s.token = (static_cast<SessionToken>(broker_->id()) << 40) | ++nonce_;
  s.client = client;
  s.state = SessionState::Active;
  s.opened_at = s.last_heartbeat = now();
  if (will) {
    // The will gets its publication id up front so it can fire even after
    // the stub is dismantled.
    if (will->id().client == kNoClient) will->set_id(stub->allocate_id());
    s.will = std::move(will);
  }
  configure_stub(*stub);
  expired_.erase(client);
  sessions_[client] = std::move(s);
  ++stats_.opened;
  TMPS_EVENT(tracer_, kNoTxn, "session:open",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(client)}});
  return sessions_[client].token;
}

bool SessionManager::heartbeat(ClientId client, SessionToken token,
                               Outputs& out) {
  auto it = sessions_.find(client);
  if (it == sessions_.end() || it->second.token != token) {
    // No local record: relay toward the token's home broker (the client may
    // be talking to a forwarding attachment point).
    const BrokerId home = home_of(token);
    if (home != kNoBroker && home != broker_->id()) {
      broker_->send_unicast(home, SessionHeartbeatMsg{token, client}, kNoTxn,
                            out);
      return true;
    }
    return false;
  }
  Session& s = it->second;
  s.last_heartbeat = now();
  if (s.state == SessionState::Attached && home_of(s.token) != broker_->id()) {
    broker_->send_unicast(home_of(s.token),
                          SessionHeartbeatMsg{s.token, client}, kNoTxn, out);
  }
  return true;
}

bool SessionManager::close(ClientId client, SessionToken token, bool fire,
                           Outputs& out) {
  auto it = sessions_.find(client);
  if (it == sessions_.end() || it->second.token != token) return false;
  Session& s = it->second;
  if (fire) fire_will(s, out);
  if (ClientStub* stub = engine_->find_client(client)) {
    if (s.state == SessionState::Forwarding) deliver_locally(*stub);
    if (stub->state() == ClientState::PauseOper) stub->resume();
    // Closing the session lifts the caps: the stub reverts to plain
    // movement-buffering semantics.
    stub->set_buffer_limits({});
    stub->set_drop_fn(nullptr);
  }
  ++stats_.closed;
  TMPS_EVENT(tracer_, kNoTxn, "session:close",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(client)}});
  sessions_.erase(it);
  return true;
}

void SessionManager::disconnect(ClientId client) {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.state == SessionState::Detached || s.state == SessionState::Expired) {
    return;
  }
  if (s.state == SessionState::Attached &&
      home_of(s.token) != broker_->id()) {
    // Remote-homed attachment: no stub here. Dropping the local record stops
    // the heartbeat relay, so the home's liveness sweep detaches the session
    // within its beat budget and buffering resumes there.
    sessions_.erase(it);
    return;
  }
  if (ClientStub* stub = engine_->find_client(client)) {
    if (s.state == SessionState::Forwarding) deliver_locally(*stub);
    if (stub->state() == ClientState::Started) stub->pause();
    // A stub mid-movement (PauseMove/PrepareStop) already buffers; the
    // session just starts its grace clock.
  }
  s.state = SessionState::Detached;
  s.detached_at = now();
  s.peer = kNoBroker;
  s.move_txn = kNoTxn;
  TMPS_EVENT(tracer_, kNoTxn, "session:detach",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(client)}});
}

void SessionManager::reattach(ClientId client, SessionToken token,
                              Outputs& out) {
  const BrokerId home = home_of(token);
  if (home != broker_->id()) {
    // Pending attachment record; the home's SessionAck resolves its fate.
    Session& s = sessions_[client];
    s.token = token;
    s.client = client;
    s.state = SessionState::Attached;
    s.peer = home;
    s.attach_since = s.last_heartbeat = now();
    if (s.opened_at == 0) s.opened_at = now();
  }
  broker_->send_unicast(home, SessionResumeMsg{token, client, broker_->id()},
                        kNoTxn, out);
}

// --- the engine's session handler --------------------------------------------

void SessionManager::on_session(BrokerId from, const Message& msg,
                                Outputs& out) {
  if (const auto* m = std::get_if<SessionResumeMsg>(&msg.payload)) {
    on_resume(from, *m, out);
  } else if (const auto* m = std::get_if<SessionAckMsg>(&msg.payload)) {
    on_ack(*m, out);
  } else if (const auto* m = std::get_if<SessionForwardMsg>(&msg.payload)) {
    on_forward(*m);
  } else if (const auto* m = std::get_if<SessionOpenMsg>(&msg.payload)) {
    on_open_frame(*m, out);
  } else if (const auto* m = std::get_if<SessionHeartbeatMsg>(&msg.payload)) {
    heartbeat(m->client, m->token, out);
  } else if (const auto* m = std::get_if<SessionCloseMsg>(&msg.payload)) {
    close(m->client, m->token, m->fire_will, out);
  }
}

void SessionManager::on_resume(BrokerId from, const SessionResumeMsg& m,
                               Outputs& out) {
  (void)from;  // overlay previous hop; the reattach broker is m.at
  SessionAckMsg ack;
  ack.token = m.token;
  ack.client = m.client;
  ack.home = broker_->id();
  TMPS_EVENT(tracer_, kNoTxn, "session:resume",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(m.client)},
              {"at", std::to_string(m.at)}});

  auto it = sessions_.find(m.client);
  if (it == sessions_.end() || it->second.token != m.token) {
    ack.verdict = expired_.count(m.client) ? SessionVerdict::Expired
                                           : SessionVerdict::Unknown;
    answer(m.at, std::move(ack), out);
    return;
  }
  Session& s = it->second;
  s.last_heartbeat = now();
  ClientStub* stub = engine_->find_client(m.client);
  if (!stub) {
    ack.verdict = SessionVerdict::Unknown;
    answer(m.at, std::move(ack), out);
    return;
  }

  if (m.at == broker_->id()) {
    // The client reappeared at home: resume in place.
    if (s.state == SessionState::Forwarding) deliver_locally(*stub);
    if (stub->state() == ClientState::PauseOper) stub->resume();
    s.state = SessionState::Active;
    s.peer = kNoBroker;
    s.move_txn = kNoTxn;
    ++stats_.resumed_local;
    if (resumes_ctr_) resumes_ctr_->inc();
    ack.verdict = SessionVerdict::Resumed;
    answer(m.at, std::move(ack), out);
    return;
  }

  if (s.state == SessionState::Moving) {
    // A movement is already in flight; re-answer idempotently.
    ack.verdict = SessionVerdict::Moving;
    ack.txn = s.move_txn;
    answer(m.at, std::move(ack), out);
    return;
  }

  if (cfg_.move_on_resume) {
    const MoveStart ms = engine_->try_initiate_move(m.client, m.at, out);
    if (ms.started()) {
      s.state = SessionState::Moving;
      s.peer = m.at;
      s.move_txn = ms.txn;
      ++stats_.resumed_move;
      if (resumes_ctr_) resumes_ctr_->inc();
      ack.verdict = SessionVerdict::Moving;
      ack.txn = ms.txn;
      ack.will = s.will;  // the will re-homes with the session
      answer(m.at, std::move(ack), out);
      return;
    }
  }

  begin_forwarding(s, *stub, m.at);
  ++stats_.resumed_forward;
  if (resumes_ctr_) resumes_ctr_->inc();
  ack.verdict = SessionVerdict::Forwarding;
  answer(m.at, std::move(ack), out);
}

void SessionManager::on_ack(const SessionAckMsg& m, Outputs& out) {
  (void)out;
  if (client_channel_) {
    Message msg;
    msg.id = broker_->next_message_id();
    msg.payload = m;
    client_channel_(m.client, msg);
  }
  auto it = sessions_.find(m.client);
  const bool pending =
      it != sessions_.end() && (it->second.state == SessionState::Attached ||
                                it->second.state == SessionState::Moving) &&
      home_of(it->second.token) != broker_->id();
  switch (m.verdict) {
    case SessionVerdict::Resumed:
      // The session lives at its home; a reattach placeholder here is moot.
      if (pending) sessions_.erase(it);
      break;
    case SessionVerdict::Moving: {
      if (home_of(m.token) == broker_->id()) break;
      Session& s = sessions_[m.client];
      s.token = m.token;
      s.client = m.client;
      s.state = SessionState::Moving;
      s.peer = m.home;
      s.move_txn = m.txn;
      if (s.attach_since == 0) s.attach_since = now();
      if (s.opened_at == 0) s.opened_at = now();
      if (m.will) s.will = m.will;
      break;
    }
    case SessionVerdict::Forwarding: {
      if (home_of(m.token) == broker_->id()) break;
      Session& s = sessions_[m.client];
      s.token = m.token;
      s.client = m.client;
      s.state = SessionState::Attached;
      s.peer = m.home;
      if (s.attach_since == 0) s.attach_since = now();
      if (s.opened_at == 0) s.opened_at = now();
      break;
    }
    case SessionVerdict::Expired:
    case SessionVerdict::Unknown:
      if (pending) sessions_.erase(it);
      break;
  }
}

void SessionManager::on_forward(const SessionForwardMsg& m) {
  for (const Publication& pub : m.pubs) {
    engine_->deliver_direct(m.client, pub);
    if (client_channel_) {
      Message msg;
      msg.id = broker_->next_message_id();
      msg.payload = PublishMsg{pub};
      client_channel_(m.client, msg);
    }
  }
}

void SessionManager::on_open_frame(const SessionOpenMsg& m, Outputs& out) {
  if (!engine_->find_client(m.client)) engine_->connect_client(m.client);
  const SessionToken token = open(m.client, m.will);
  SessionAckMsg ack;
  ack.token = token;
  ack.client = m.client;
  ack.verdict =
      token == kNoToken ? SessionVerdict::Unknown : SessionVerdict::Resumed;
  ack.home = broker_->id();
  answer(broker_->id(), std::move(ack), out);
}

// --- timers ------------------------------------------------------------------

void SessionManager::tick() {
  const double t = now();
  Outputs out;

  std::vector<ClientId> ids;
  ids.reserve(sessions_.size());
  for (const auto& [c, s] : sessions_) ids.push_back(c);

  for (const ClientId c : ids) {
    auto it = sessions_.find(c);
    if (it == sessions_.end()) continue;
    Session& s = it->second;
    switch (s.state) {
      case SessionState::Active:
      case SessionState::Forwarding:
        // Heartbeat liveness: a session silent past its beat budget is
        // implicitly disconnected.
        if (cfg_.heartbeat_interval > 0 && cfg_.miss_factor > 0 &&
            t - s.last_heartbeat > cfg_.heartbeat_interval * cfg_.miss_factor) {
          disconnect(c);
        }
        break;
      case SessionState::Detached: {
        if (ClientStub* stub = engine_->find_client(c)) {
          // A stub that landed here via a movement that committed after the
          // client already vanished again arrives Started: park it.
          if (stub->state() == ClientState::Started) stub->pause();
          // A stub mid-movement must resolve before the session can be
          // dismantled.
          if (t - s.detached_at > cfg_.grace &&
              (stub->state() == ClientState::PauseOper ||
               stub->state() == ClientState::Started)) {
            expire(s, out);
          }
        } else if (t - s.detached_at > cfg_.grace) {
          expire(s, out);
        }
        break;
      }
      case SessionState::Moving: {
        if (home_of(s.token) == broker_->id()) {
          // Home side: the movement either committed (stub gone — the
          // session re-homed) or aborted (fall back to forwarding).
          if (!engine_->find_client(c)) {
            sessions_.erase(it);
            break;
          }
          const auto st = engine_->source_state(s.move_txn);
          if (st && *st == SourceCoordState::Abort) {
            ClientStub* stub = engine_->find_client(c);
            SessionAckMsg ack;
            ack.token = s.token;
            ack.client = c;
            ack.home = broker_->id();
            if (stub) {
              const BrokerId to = s.peer;
              begin_forwarding(s, *stub, to);
              ack.verdict = SessionVerdict::Forwarding;
              answer(to, std::move(ack), out);
            } else {
              s.state = SessionState::Active;
              s.move_txn = kNoTxn;
              ack.verdict = SessionVerdict::Resumed;
              answer(s.peer, std::move(ack), out);
              s.peer = kNoBroker;
            }
          }
        } else {
          // Reattach side: adopt once the movement installs the stub here.
          ClientStub* stub = engine_->find_client(c);
          if (stub && stub->state() == ClientState::Started) {
            s.token =
                (static_cast<SessionToken>(broker_->id()) << 40) | ++nonce_;
            s.state = SessionState::Active;
            s.peer = kNoBroker;
            s.move_txn = kNoTxn;
            s.last_heartbeat = t;
            if (s.will && s.will->id().client == kNoClient) {
              s.will->set_id(stub->allocate_id());
            }
            configure_stub(*stub);
            ++stats_.adopted;
            TMPS_EVENT(tracer_, kNoTxn, "session:adopt",
                       {{"broker", std::to_string(broker_->id())},
                        {"client", std::to_string(c)}});
            if (client_channel_) {
              SessionAckMsg ack;
              ack.token = s.token;
              ack.client = c;
              ack.verdict = SessionVerdict::Resumed;
              ack.home = broker_->id();
              Message msg;
              msg.id = broker_->next_message_id();
              msg.payload = ack;
              client_channel_(c, msg);
            }
          } else if (t - s.attach_since > 5 * cfg_.tick_interval) {
            // The movement stalled or aborted remotely; retry the resume
            // (idempotent — the home re-answers with its current mode).
            s.attach_since = t;
            broker_->send_unicast(
                home_of(s.token),
                SessionResumeMsg{s.token, c, broker_->id()}, kNoTxn, out);
          }
        }
        break;
      }
      case SessionState::Attached:
      case SessionState::Expired:
        break;
    }
  }

  // Tombstones outlive the grace window long enough for the repair sweeps
  // to retract the expired client's routing state, then go away — session
  // GC leaves no residue.
  std::erase_if(expired_, [&](const auto& kv) {
    return t - kv.second.detached_at > 2 * cfg_.grace;
  });

  refresh_gauges();
  engine_->emit(std::move(out));
}

void SessionManager::expire(Session& s, Outputs& out) {
  const ClientId client = s.client;
  fire_will(s, out);
  if (ClientStub* stub = engine_->find_client(client)) {
    // Notifications still buffered at expiry are lost with the session;
    // every one lands in the drop ledger before the stub goes away.
    for (const Publication& p : stub->take_buffer()) {
      note_drop(client, p, DropReason::Expiry);
    }
  }
  engine_->remove_client(client);
  ++stats_.expired;
  TMPS_EVENT(tracer_, kNoTxn, "session:expire",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(client)}});
  Session tomb = s;
  tomb.state = SessionState::Expired;
  expired_[client] = std::move(tomb);
  sessions_.erase(client);
}

void SessionManager::fire_will(Session& s, Outputs& out) {
  if (!s.will) return;
  Publication will = *s.will;
  if (will.id().client == kNoClient) {
    will.set_id({s.client, 0xFFFFFF});  // stub already gone; synthetic seq
  }
  for (auto& o : broker_->client_publish(s.client, will)) {
    out.push_back(std::move(o));
  }
  ++stats_.wills_fired;
  TMPS_EVENT(tracer_, kNoTxn, "session:will",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(s.client)}});
  s.will.reset();
}

// --- forwarding --------------------------------------------------------------

void SessionManager::begin_forwarding(Session& s, ClientStub& stub,
                                      BrokerId to) {
  s.state = SessionState::Forwarding;
  s.peer = to;
  s.move_txn = kNoTxn;
  const ClientId client = s.client;
  stub.set_delivery_fn(
      [this, client](const Publication& pub) { forward_pub(client, pub); });
  TMPS_EVENT(tracer_, kNoTxn, "session:forward-begin",
             {{"broker", std::to_string(broker_->id())},
              {"client", std::to_string(client)},
              {"to", std::to_string(to)}});
  // Resuming flushes the detached-operation buffer through the forwarder.
  if (stub.state() == ClientState::PauseOper) stub.resume();
}

void SessionManager::forward_pub(ClientId client, const Publication& pub) {
  auto it = sessions_.find(client);
  if (it == sessions_.end() || it->second.state != SessionState::Forwarding) {
    engine_->deliver_direct(client, pub);
    return;
  }
  Outputs out;
  SessionForwardMsg f;
  f.token = it->second.token;
  f.client = client;
  f.origin = broker_->id();
  f.pubs.push_back(pub);
  broker_->send_unicast(it->second.peer, std::move(f), kNoTxn, out);
  engine_->emit(std::move(out));
  ++stats_.forwarded_pubs;
}

void SessionManager::deliver_locally(ClientStub& stub) {
  const ClientId client = stub.id();
  stub.set_delivery_fn([this, client](const Publication& pub) {
    engine_->deliver_direct(client, pub);
  });
}

// --- plumbing ----------------------------------------------------------------

void SessionManager::configure_stub(ClientStub& stub) {
  stub.set_buffer_limits({cfg_.buffer_max_count, kBufferMaxBytes});
  const ClientId client = stub.id();
  stub.set_drop_fn([this, client](const Publication& pub) {
    note_drop(client, pub, DropReason::Overflow);
  });
}

void SessionManager::note_drop(ClientId client, const Publication& pub,
                               DropReason reason) {
  if (reason == DropReason::Overflow) {
    ++stats_.dropped_overflow;
    if (dropped_overflow_ctr_) dropped_overflow_ctr_->inc();
  } else {
    ++stats_.dropped_expiry;
    if (dropped_expiry_ctr_) dropped_expiry_ctr_->inc();
  }
  drop_log_.push_back({pub.id(), client, reason});
}

void SessionManager::answer(BrokerId dest, SessionAckMsg ack, Outputs& out) {
  broker_->send_unicast(dest, std::move(ack), kNoTxn, out);
}

void SessionManager::refresh_gauges() {
  if (sessions_gauge_) {
    sessions_gauge_->set(static_cast<double>(sessions_.size()));
  }
  if (buffered_bytes_gauge_) {
    buffered_bytes_gauge_->set(static_cast<double>(buffered_bytes()));
  }
}

std::size_t SessionManager::buffered_bytes() const {
  std::size_t total = 0;
  for (const auto& [c, s] : sessions_) {
    if (const ClientStub* stub = engine_->find_client(c)) {
      total += stub->buffered_bytes();
    }
  }
  return total;
}

SessionToken SessionManager::token_of(ClientId client) const {
  auto it = sessions_.find(client);
  return it == sessions_.end() ? kNoToken : it->second.token;
}

SessionState SessionManager::state_of(ClientId client) const {
  auto it = sessions_.find(client);
  if (it != sessions_.end()) return it->second.state;
  if (expired_.count(client)) return SessionState::Expired;
  return SessionState::Expired;  // unknown reads as terminal
}

int SessionManager::repair_hint(ClientId client) const {
  if (expired_.count(client)) return 2;
  if (sessions_.count(client)) return 1;
  return 0;
}

std::vector<SessionInfo> SessionManager::snapshot() const {
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size() + expired_.size());
  const auto fill = [&](const Session& s) {
    SessionInfo i;
    i.token = s.token;
    i.client = s.client;
    i.state = s.state;
    i.opened_at = s.opened_at;
    i.last_heartbeat = s.last_heartbeat;
    i.detached_at = s.detached_at;
    i.peer = s.peer;
    i.move_txn = s.move_txn;
    i.has_will = s.will.has_value();
    if (const ClientStub* stub = engine_->find_client(s.client)) {
      i.buffered = stub->buffered_count();
      i.buffered_bytes = stub->buffered_bytes();
    }
    out.push_back(i);
  };
  for (const auto& [c, s] : sessions_) fill(s);
  for (const auto& [c, s] : expired_) fill(s);
  return out;
}

}  // namespace tmps::session
