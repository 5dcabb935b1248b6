#include "session/tcp_session_host.h"

#include "session/session_admin.h"

namespace tmps::session {

TcpSessionHost::TcpSessionHost(TcpTransport& transport, SessionConfig cfg)
    : transport_(&transport), cfg_(cfg) {
  for (BrokerId b = 1; b <= transport.overlay().broker_count(); ++b) {
    MobilityEngine& engine = transport.engine(b);
    auto mgr = std::make_unique<SessionManager>(engine, transport, cfg_);
    engine.set_session_handler(mgr.get());
    // Deliveries (stub flushes, forwarded publications) go down the client's
    // socket; a dead socket just drops the frame — the session layer's
    // buffering only covers the *detached* state, matching push semantics.
    engine.set_delivery_sink(
        [this, b](ClientId c, const Publication& pub, SimTime) {
          Message m;
          m.payload = PublishMsg{pub};
          transport_->send_to_client(b, c, m);
        });
    mgr->set_client_channel([this, b](ClientId c, const Message& m) {
      return transport_->send_to_client(b, c, m);
    });
    transport.add_admin_route(b, "/sessions",
                              [raw = mgr.get()]() -> HttpResponse {
                                return {200, "application/json",
                                        sessions_json(*raw)};
                              });
    managers_.push_back(std::move(mgr));
  }
  transport.set_session_frame_handler(
      [this](BrokerId b, ClientId client, const Message& msg) {
        on_client_frame(b, client, msg);
      });
  transport.set_client_gone_handler([this](BrokerId b, ClientId client) {
    transport_->run_on(b, [this, b, client](MobilityEngine&,
                                            Broker::Outputs&) {
      if (SessionManager* m = manager_of(b)) m->disconnect(client);
    });
  });
}

TcpSessionHost::~TcpSessionHost() { stop(); }

SessionManager* TcpSessionHost::manager_of(BrokerId b) const {
  return b >= 1 && b <= managers_.size() ? managers_[b - 1].get() : nullptr;
}

void TcpSessionHost::start() {
  for (const auto& m : managers_) schedule_tick(m->broker_id());
}

void TcpSessionHost::schedule_tick(BrokerId b) {
  transport_->schedule(cfg_.tick_interval, [this, b] {
    if (stopped_.load()) return;
    transport_->run_on(b, [this, b](MobilityEngine&, Broker::Outputs&) {
      if (SessionManager* m = manager_of(b)) m->tick();
    });
    schedule_tick(b);
  });
}

void TcpSessionHost::on_client_frame(BrokerId b, ClientId client,
                                     const Message& msg) {
  transport_->run_on(b, [this, b, client, &msg](MobilityEngine& engine,
                                                Broker::Outputs& out) {
    SessionManager* m = manager_of(b);
    if (!m) return;
    if (std::holds_alternative<SessionOpenMsg>(msg.payload)) {
      m->on_session(b, msg, out);
    } else if (const auto* r = std::get_if<SessionResumeMsg>(&msg.payload)) {
      m->reattach(client, r->token, out);
    } else if (const auto* h = std::get_if<SessionHeartbeatMsg>(&msg.payload)) {
      m->heartbeat(client, h->token, out);
    } else if (const auto* c = std::get_if<SessionCloseMsg>(&msg.payload)) {
      m->close(client, c->token, c->fire_will, out);
    } else if (const auto* p = std::get_if<PublishMsg>(&msg.payload)) {
      engine.publish(client, p->pub, out);
    } else if (const auto* s = std::get_if<SubscribeMsg>(&msg.payload)) {
      engine.subscribe(client, s->sub.filter, out);
    } else if (const auto* a = std::get_if<AdvertiseMsg>(&msg.payload)) {
      engine.advertise(client, a->adv.filter, out);
    }
  });
}

}  // namespace tmps::session
