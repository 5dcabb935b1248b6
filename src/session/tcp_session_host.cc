#include "session/tcp_session_host.h"

#include <limits>

#include "session/session_admin.h"

namespace tmps::session {

namespace {

/// An edge-client frame, handled at broker `b` under its state lock.
void on_client_frame(TcpTransport& t, BrokerId b, ClientId client,
                     const Message& msg) {
  t.run_on(b, [&](MobilityEngine& engine, Broker::Outputs& out) {
    SessionManager* m = t.sessions(b);
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

}  // namespace

TcpSessionHost::TcpSessionHost(TcpTransport& transport)
    : transport_(&transport) {
  TcpTransport* t = &transport;
  for (BrokerId b = 1; b <= t->overlay().broker_count(); ++b) {
    SessionManager* mgr = t->sessions(b);
    if (!mgr) continue;
    // Deliveries (stub flushes, forwarded publications) go down the client's
    // socket; a dead socket just drops the frame — the session layer's
    // buffering only covers the *detached* state, matching push semantics.
    t->engine(b).set_delivery_sink(
        [t, b](ClientId c, const Publication& pub, SimTime) {
          Message m;
          m.payload = PublishMsg{pub};
          t->send_to_client(b, c, m);
        });
    mgr->set_client_channel([t, b](ClientId c, const Message& m) {
      return t->send_to_client(b, c, m);
    });
    t->add_admin_route(b, "/sessions", [mgr]() -> HttpResponse {
      return {200, "application/json", sessions_json(*mgr)};
    });
  }
  t->set_session_frame_handler(
      [t](BrokerId b, ClientId client, const Message& msg) {
        on_client_frame(*t, b, client, msg);
      });
  t->set_client_gone_handler([t](BrokerId b, ClientId client) {
    t->run_on(b, [t, b, client](MobilityEngine&, Broker::Outputs&) {
      if (SessionManager* m = t->sessions(b)) m->disconnect(client);
    });
  });
}

void TcpSessionHost::start() {
  for (BrokerId b = 1; b <= transport_->overlay().broker_count(); ++b) {
    if (SessionManager* m = transport_->sessions(b)) {
      m->start(m->config().tick_interval,
               std::numeric_limits<double>::infinity());
    }
  }
}

}  // namespace tmps::session
