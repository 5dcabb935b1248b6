// Edge-client session layer (src/session): token issue/routing, disconnected
// operation with bounded buffering, heartbeat liveness, the three resume
// outcomes (in place / movement / forwarding fallback), expiry with last-will
// and drop accounting, and the repair-sweep garbage collection of what an
// expired session leaves behind.
#include <gtest/gtest.h>

#include <memory>

#include "core/scenario.h"
#include "pubsub/workload.h"
#include "session/session_manager.h"
#include "sim/network.h"

namespace tmps {
namespace {

using session::SessionManager;
using session::SessionState;
using session::SessionToken;

SessionConfig test_session_cfg() {
  SessionConfig sc;
  sc.enabled = true;
  sc.heartbeat_interval = 1.0;
  sc.miss_factor = 3.0;
  sc.grace = 5.0;
  sc.tick_interval = 0.5;
  return sc;
}

BrokerConfig with_sessions(SessionConfig sc) {
  BrokerConfig bc;
  bc.session = sc;
  return bc;
}

/// Four chained brokers, each with the host's mobility engine and session
/// manager; ticks are driven manually so tests control the clock.
struct Rig {
  explicit Rig(SessionConfig sc = test_session_cfg())
      : overlay(Overlay::chain(4)), net(overlay, with_sessions(sc)) {
    for (BrokerId b = 1; b <= 4; ++b) {
      net.engine(b).set_delivery_sink(
          [this, b](ClientId c, const Publication& p, SimTime) {
            deliveries.push_back({b, c, p.id()});
          });
    }
  }

  SessionManager& mgr(BrokerId b) { return *net.sessions(b); }

  /// Advances simulated time to `t` (draining everything scheduled).
  void advance_to(double t) {
    net.events().schedule_at(t, [] {});
    net.run();
  }

  /// Publisher client 1 at broker 4 covers the space; subscriber at `home`
  /// holds covered-family filter #1.
  void setup_pub_sub(ClientId sub_client, BrokerId home) {
    net.run_on(4, [](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(1);
      e.advertise(1, full_space_advertisement(), out);
    });
    net.run();
    net.run_on(home, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(sub_client);
      e.subscribe(sub_client, workload_filter(WorkloadKind::Covered, 1), out);
    });
    net.run();
  }

  void publish(std::uint32_t seq) {
    net.run_on(4, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(1, make_publication({1, seq}, 100, 0), out);
    });
    net.run();
  }

  int delivered(ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& d : deliveries) {
      if (d.client == c && d.pub == id) ++n;
    }
    return n;
  }
  int delivered_at(BrokerId b, ClientId c, PublicationId id) const {
    int n = 0;
    for (const auto& d : deliveries) {
      if (d.broker == b && d.client == c && d.pub == id) ++n;
    }
    return n;
  }
  int delivered_total(ClientId c) const {
    int n = 0;
    for (const auto& d : deliveries) {
      if (d.client == c) ++n;
    }
    return n;
  }

  struct Delivery {
    BrokerId broker;
    ClientId client;
    PublicationId pub;
  };

  Overlay overlay;
  SimNetwork net;
  std::vector<Delivery> deliveries;
};

/// Captures session acks pushed down a manager's client channel.
void capture_acks(SessionManager& mgr, std::vector<SessionAckMsg>* sink) {
  mgr.set_client_channel([sink](ClientId, const Message& m) {
    if (const auto* a = std::get_if<SessionAckMsg>(&m.payload)) {
      sink->push_back(*a);
    }
    return true;
  });
}

TEST(Session, TokenEncodesHomeBrokerAndRequiresHostedClient) {
  Rig r;
  EXPECT_EQ(r.mgr(2).open(77), session::kNoToken) << "client not hosted";
  r.net.engine(2).connect_client(77);
  const SessionToken tok = r.mgr(2).open(77);
  ASSERT_NE(tok, session::kNoToken);
  EXPECT_EQ(SessionManager::home_of(tok), 2u);
  EXPECT_EQ(r.mgr(2).state_of(77), SessionState::Active);
  EXPECT_EQ(r.mgr(2).token_of(77), tok);
  EXPECT_EQ(r.mgr(2).live_sessions(), 1u);
  EXPECT_EQ(r.mgr(2).stats().opened, 1u);
  // Tokens are unique per session, even for the same client.
  EXPECT_NE(r.mgr(2).open(77), tok);
}

TEST(Session, DisconnectBuffersAndHomeResumeReplaysExactlyOnce) {
  Rig r;
  r.setup_pub_sub(100, 1);
  const SessionToken tok = r.mgr(1).open(100);

  r.publish(10);
  EXPECT_EQ(r.delivered(100, {1, 10}), 1) << "live delivery while connected";

  r.mgr(1).disconnect(100);
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Detached);
  r.publish(11);
  EXPECT_EQ(r.delivered(100, {1, 11}), 0) << "buffered while detached";
  ASSERT_NE(r.net.engine(1).find_client(100), nullptr);
  EXPECT_EQ(r.net.engine(1).find_client(100)->buffered_count(), 1u);
  EXPECT_GT(r.mgr(1).buffered_bytes(), 0u);

  // Reappearing at home resumes in place and flushes the buffer.
  r.net.run_on(1, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(1).reattach(100, tok, out);
  });
  r.net.run();
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Active);
  EXPECT_EQ(r.delivered(100, {1, 11}), 1);
  EXPECT_EQ(r.mgr(1).stats().resumed_local, 1u);

  // The exactly-once guard survives the replay: a network duplicate of the
  // same publication id is suppressed.
  r.publish(11);
  EXPECT_EQ(r.delivered(100, {1, 11}), 1);
  EXPECT_TRUE(r.mgr(1).drop_log().empty()) << "nothing was dropped";
}

TEST(Session, SilentSessionDetachesAfterHeartbeatBudget) {
  Rig r;
  r.net.engine(1).connect_client(100);
  const SessionToken tok = r.mgr(1).open(100);

  r.advance_to(2.0);
  Broker::Outputs out;
  EXPECT_FALSE(r.mgr(1).heartbeat(100, tok + 1, out)) << "wrong token";
  EXPECT_TRUE(r.mgr(1).heartbeat(100, tok, out));

  r.advance_to(4.0);  // 2 s of silence < 1.0 * 3 budget
  r.mgr(1).tick();
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Active);

  r.advance_to(8.0);  // 6 s of silence > budget: implicit disconnect
  r.mgr(1).tick();
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Detached);
}

TEST(Session, ResumeAtAnotherBrokerTriggersMoveAndAdoption) {
  Rig r;
  r.setup_pub_sub(100, 1);
  const SessionToken tok = r.mgr(1).open(100);
  r.mgr(1).disconnect(100);
  r.publish(11);  // buffered at the home broker

  // The client reappears at broker 3 holding its token: the home turns the
  // resume into a movement transaction toward broker 3.
  r.net.run_on(3, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(3).reattach(100, tok, out);
  });
  r.net.run();
  EXPECT_EQ(r.mgr(1).stats().resumed_move, 1u);
  EXPECT_EQ(r.net.engine(1).find_client(100), nullptr) << "stub re-homed";
  ASSERT_NE(r.net.engine(3).find_client(100), nullptr);
  EXPECT_EQ(r.delivered(100, {1, 11}), 1) << "buffer travelled with the move";

  // The reattach broker adopts the session on its next sweep and re-mints
  // the token under its own home id (tokens are single-home).
  r.mgr(3).tick();
  EXPECT_EQ(r.mgr(3).stats().adopted, 1u);
  EXPECT_EQ(r.mgr(3).state_of(100), SessionState::Active);
  const SessionToken tok2 = r.mgr(3).token_of(100);
  EXPECT_EQ(SessionManager::home_of(tok2), 3u);
  EXPECT_NE(tok2, tok);

  // The old home clears its record once the stub is gone: no residue.
  r.mgr(1).tick();
  EXPECT_EQ(r.mgr(1).live_sessions(), 0u);

  // Routing followed the device: deliveries now land at broker 3.
  r.publish(12);
  EXPECT_EQ(r.delivered_at(3, 100, {1, 12}), 1);
  EXPECT_EQ(r.delivered(100, {1, 12}), 1);
}

TEST(Session, MoveDisabledFallsBackToOverlayForwarding) {
  SessionConfig sc = test_session_cfg();
  sc.move_on_resume = false;  // same fallback branch a Busy refusal takes
  Rig r(sc);
  r.setup_pub_sub(100, 1);
  const SessionToken tok = r.mgr(1).open(100);
  r.mgr(1).disconnect(100);
  r.publish(11);  // buffered

  r.net.run_on(3, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(3).reattach(100, tok, out);
  });
  r.net.run();
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Forwarding);
  EXPECT_EQ(r.mgr(3).state_of(100), SessionState::Attached);
  EXPECT_EQ(r.mgr(1).stats().resumed_forward, 1u);
  EXPECT_NE(r.net.engine(1).find_client(100), nullptr)
      << "routing state stays home";

  // The buffered backlog flushed through the forwarder to broker 3, and new
  // matches keep following.
  EXPECT_EQ(r.delivered_at(3, 100, {1, 11}), 1);
  r.publish(12);
  EXPECT_EQ(r.delivered_at(3, 100, {1, 12}), 1);
  EXPECT_EQ(r.delivered(100, {1, 12}), 1) << "forwarded exactly once";
  EXPECT_GE(r.mgr(1).stats().forwarded_pubs, 2u);

  // Heartbeats at the attachment point relay to the home broker.
  r.advance_to(2.0);
  r.net.run_on(3, [&](MobilityEngine&, Broker::Outputs& out) {
    EXPECT_TRUE(r.mgr(3).heartbeat(100, tok, out));
  });
  r.net.run();
  bool refreshed = false;
  for (const auto& i : r.mgr(1).snapshot()) {
    if (i.client == 100) refreshed = i.last_heartbeat >= 2.0;
  }
  EXPECT_TRUE(refreshed) << "relayed heartbeat must reach the home";

  // The client drops the link to broker 3 and reappears at home: local
  // delivery is restored and the attachment record at 3 is gone.
  r.mgr(3).disconnect(100);
  EXPECT_EQ(r.mgr(3).live_sessions(), 0u);
  r.net.run_on(1, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(1).reattach(100, tok, out);
  });
  r.net.run();
  EXPECT_EQ(r.mgr(1).state_of(100), SessionState::Active);
  r.publish(13);
  EXPECT_EQ(r.delivered_at(1, 100, {1, 13}), 1);
}

TEST(Session, ExpiryFiresWillAccountsDropsAndPrunesTombstone) {
  Rig r;
  r.setup_pub_sub(100, 1);
  // The session owner also advertises, so its last-will can route; a
  // listener at broker 2 subscribes to the same space.
  r.net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.advertise(100, full_space_advertisement(), out);
  });
  r.net.run();
  r.net.run_on(2, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(200);
    e.subscribe(200, workload_filter(WorkloadKind::Covered, 2), out);
  });
  r.net.run();

  const SessionToken tok =
      r.mgr(1).open(100, make_publication({0, 0}, 100, 0));
  r.mgr(1).disconnect(100);
  r.publish(11);  // buffered, will be lost with the session

  r.advance_to(6.0);  // grace is 5 s
  r.mgr(1).tick();
  r.net.run();  // routes the will

  EXPECT_EQ(r.mgr(1).stats().expired, 1u);
  EXPECT_EQ(r.mgr(1).stats().wills_fired, 1u);
  EXPECT_EQ(r.net.engine(1).find_client(100), nullptr) << "stub dismantled";
  int wills_seen = 0;  // the will is re-minted to {100, seq} at open
  for (const auto& d : r.deliveries) {
    if (d.client == 200 && d.pub.client == 100) ++wills_seen;
  }
  EXPECT_EQ(wills_seen, 1) << "last-will reached the listener";
  EXPECT_EQ(r.delivered_total(200), 2) << "will plus the live publication";

  // The notification still buffered at expiry is in the drop ledger,
  // exactly once, tagged expiry.
  ASSERT_EQ(r.mgr(1).drop_log().size(), 1u);
  EXPECT_EQ(r.mgr(1).drop_log()[0].pub, (PublicationId{1, 11}));
  EXPECT_EQ(r.mgr(1).drop_log()[0].reason, session::DropReason::Expiry);
  EXPECT_EQ(r.mgr(1).stats().dropped_expiry, 1u);

  // Tombstone: the repair sweeps see an expired session (fast-path retract)
  // and a stale resume is answered Expired.
  EXPECT_EQ(r.mgr(1).repair_hint(100), 2);
  EXPECT_EQ(r.mgr(1).live_sessions(), 0u);
  EXPECT_EQ(r.mgr(1).expired_sessions(), 1u);
  std::vector<SessionAckMsg> acks;
  capture_acks(r.mgr(3), &acks);
  r.net.run_on(3, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(3).reattach(100, tok, out);
  });
  r.net.run();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].verdict, SessionVerdict::Expired);
  EXPECT_EQ(r.mgr(3).live_sessions(), 0u) << "placeholder erased on verdict";

  // The tombstone itself is pruned after 2x grace: GC leaves no residue.
  r.advance_to(12.0);
  r.mgr(1).tick();
  EXPECT_EQ(r.mgr(1).expired_sessions(), 0u);
  EXPECT_EQ(r.mgr(1).repair_hint(100), 0);
}

TEST(Session, CloseLiftsCapsKeepsStubAndOptionallyFiresWill) {
  Rig r;
  r.net.engine(1).connect_client(100);
  ClientStub* stub = r.net.engine(1).find_client(100);
  ASSERT_NE(stub, nullptr);

  const SessionToken tok =
      r.mgr(1).open(100, make_publication({0, 0}, 100, 0));
  EXPECT_GT(stub->buffer_limits().max_count, 0u);

  Broker::Outputs out;
  EXPECT_FALSE(r.mgr(1).close(100, tok + 99, false, out)) << "wrong token";
  EXPECT_TRUE(r.mgr(1).close(100, tok, false, out));
  EXPECT_EQ(r.mgr(1).stats().closed, 1u);
  EXPECT_EQ(r.mgr(1).stats().wills_fired, 0u) << "will fires only on request";
  EXPECT_EQ(r.mgr(1).live_sessions(), 0u);
  EXPECT_NE(r.net.engine(1).find_client(100), nullptr)
      << "closing a session is not disconnecting the client";
  EXPECT_EQ(stub->buffer_limits().max_count, 0u) << "caps lifted";

  // Close-with-will (MQTT DISCONNECT-with-will semantics).
  const SessionToken tok2 =
      r.mgr(1).open(100, make_publication({0, 0}, 100, 0));
  ASSERT_NE(tok2, session::kNoToken);
  EXPECT_NE(tok2, tok) << "re-opening mints a fresh token";
  Broker::Outputs out2;
  EXPECT_TRUE(r.mgr(1).close(100, tok2, true, out2));
  EXPECT_EQ(r.mgr(1).stats().wills_fired, 1u);
}

TEST(Session, UnknownTokenResumeIsAckedUnknown) {
  Rig r;
  std::vector<SessionAckMsg> acks;
  capture_acks(r.mgr(3), &acks);
  const SessionToken bogus = (SessionToken{1} << 40) | 777;  // home = 1
  r.net.run_on(3, [&](MobilityEngine&, Broker::Outputs& out) {
    r.mgr(3).reattach(55, bogus, out);
  });
  r.net.run();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].verdict, SessionVerdict::Unknown);
  EXPECT_EQ(r.mgr(3).live_sessions(), 0u) << "no dangling placeholder";
}

TEST(Session, OpenFrameConnectsClientAndAcksOverChannel) {
  Rig r;
  std::vector<SessionAckMsg> acks;
  capture_acks(r.mgr(2), &acks);
  Message msg;
  SessionOpenMsg open;
  open.client = 300;
  open.at = 2;
  msg.payload = open;
  Broker::Outputs out;
  r.mgr(2).on_session(2, msg, out);
  r.net.transmit(2, std::move(out));
  r.net.run();

  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].verdict, SessionVerdict::Resumed);
  EXPECT_EQ(SessionManager::home_of(acks[0].token), 2u);
  EXPECT_NE(r.net.engine(2).find_client(300), nullptr)
      << "client auto-connected";
  EXPECT_EQ(r.mgr(2).state_of(300), SessionState::Active);
}

// Scenario-level: an expired session's routing state is retracted by the
// anti-entropy repair sweeps, guided by the session probe, and the
// tombstone is pruned — a crash-free fleet ends with zero residue.
TEST(Session, ScenarioExpiredSessionIsGarbageCollectedByRepair) {
  ScenarioConfig cfg;
  cfg.mobility.protocol = MobilityProtocol::Reconfiguration;
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 10;
  cfg.moving_clients = 0;
  cfg.duration = 60.0;
  cfg.warmup = 10.0;
  cfg.publish_interval = 2.0;
  cfg.seed = 7;
  cfg.broker.repair.enabled = true;
  cfg.broker.repair.sweep_interval = 0.5;
  cfg.broker.repair.stale_after = 2.0;
  cfg.broker.repair.confirm_rounds = 2;
  cfg.broker.session.enabled = true;
  cfg.broker.session.grace = 5.0;
  cfg.broker.session.heartbeat_interval = 0;  // scripted clients: no beacons

  const ClientId victim = Scenario::subscriber_id(0);
  auto opened = std::make_shared<bool>(false);

  cfg.post_build.push_back([victim, opened](Scenario& s) {
    s.net().events().schedule_at(15.0, [&s, victim, opened] {
      for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
        if (!s.net().engine(b).find_client(victim)) continue;
        session::SessionManager* m = s.net().sessions(b);
        if (!m) continue;
        *opened = m->open(victim) != session::kNoToken;
        m->disconnect(victim);
        return;
      }
    });
  });

  Scenario s(cfg);
  s.run();

  ASSERT_TRUE(*opened) << "scripted session never opened";
  const BrokerId n = s.net().overlay().broker_count();
  std::uint64_t expired = 0;
  for (BrokerId b = 1; b <= n; ++b) {
    expired += s.net().sessions(b)->stats().expired;
  }
  EXPECT_EQ(expired, 1u);

  // Nothing of the victim's routing state survives anywhere.
  for (BrokerId b = 1; b <= n; ++b) {
    for (const auto& [id, e] : s.net().broker(b).tables().prt()) {
      EXPECT_NE(id.client, victim) << "subscription residue at broker " << b;
    }
  }
  // Tombstones pruned by the quiet tail: session GC leaves no residue.
  for (BrokerId b = 1; b <= n; ++b) {
    EXPECT_EQ(s.net().sessions(b)->expired_sessions(), 0u);
    EXPECT_EQ(s.net().sessions(b)->repair_hint(victim), 0);
  }
}

}  // namespace
}  // namespace tmps
