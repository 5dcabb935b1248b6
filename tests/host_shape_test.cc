// One script, two hosts: the move below is written once against the host
// surface (HostCore, MobileClient) and run on the discrete-event SimNetwork
// and on the socket-based TcpTransport. Both must commit the move, deliver
// every publication exactly once to each receiver, and end with the same
// routing rows at every broker — also with the coordinator timeouts armed,
// under either protocol, which puts engine timers and (traditional) the
// drain-based commit on the TCP host's timer and reader threads.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "core/mobile_client.h"
#include "pubsub/workload.h"
#include "sim/network.h"
#include "transport/tcp_transport.h"

namespace tmps {
namespace {

constexpr ClientId kPublisher = 1, kStationary = 2, kMover = 3;
constexpr std::uint32_t kPubs = 6;  // the first half before the move

BrokerConfig no_covering() {
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  return bc;
}

/// What a run leaves behind. Delivery sinks and movement callbacks may run
/// on a host's reader threads, hence the lock.
struct Outcome {
  std::mutex mu;
  bool committed = false;
  std::map<std::pair<ClientId, PublicationId>, int> deliveries;
  /// Every PRT/SRT row of every broker: id, last hop, forwarded_to.
  std::set<std::string> rows;
};

/// Wires the host's engines to `o`; call before a threaded host starts.
void observe(HostCore& host, Outcome& o) {
  for (BrokerId b = 1; b <= host.overlay().broker_count(); ++b) {
    host.engine(b).set_delivery_sink(
        [&o](ClientId c, const Publication& p, SimTime) {
          std::lock_guard lock(o.mu);
          ++o.deliveries[{c, p.id()}];
        });
    host.engine(b).set_move_callback([&o](const MovementRecord& rec) {
      std::lock_guard lock(o.mu);
      o.committed = o.committed || (rec.client == kMover && rec.committed);
    });
  }
}

/// Chain-5: a publisher at B1, a stationary subscriber at B4 and a mover
/// going B2 -> B5, with publications before and after the move. `settle`
/// returns once everything sent so far has been handled; `outlive`, when
/// set, runs before the rows are read (to let armed timers fire).
void run_script(HostCore& host, const std::function<void()>& settle,
                Outcome& o, const std::function<void()>& outlive = {}) {
  MobileClient pub = MobileClient::connect(kPublisher, 1, host);
  MobileClient stationary = MobileClient::connect(kStationary, 4, host);
  MobileClient mover = MobileClient::connect(kMover, 2, host);
  pub.advertise(full_space_advertisement());
  settle();
  stationary.subscribe(workload_filter(WorkloadKind::Covered, 1));
  mover.subscribe(workload_filter(WorkloadKind::Covered, 1));
  settle();
  const auto publish = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t seq = from; seq <= to; ++seq) {
      pub.publish(make_publication({kPublisher, seq}, 100, 0));
    }
    settle();
  };
  publish(1, kPubs / 2);
  EXPECT_NE(mover.move_to(5), kNoTxn);
  // Probe the client while its move is in flight: on a threaded host these
  // reads race the reader threads unless they go through run_on.
  for (int i = 0; i < 50; ++i) (void)mover.state();
  settle();
  EXPECT_EQ(mover.location(), 5u);
  publish(kPubs / 2 + 1, kPubs);
  if (outlive) outlive();

  for (BrokerId b = 1; b <= host.overlay().broker_count(); ++b) {
    host.run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
      const auto add = [&](const char* table, const auto& rows) {
        for (const auto& [id, row] : rows) {
          std::set<std::string> fwd;
          for (const Hop& h : row.forwarded_to) fwd.insert(h.to_string());
          std::string s = "B" + std::to_string(b) + " " + table + " " +
                          to_string(id) + " last=" + row.lasthop.to_string() +
                          " fwd=";
          for (const std::string& h : fwd) s += h + ",";
          o.rows.insert(s);
        }
      };
      add("PRT", e.broker().tables().prt());
      add("SRT", e.broker().tables().srt());
    });
  }
}

void expect_exactly_once(Outcome& o, const char* host) {
  std::lock_guard lock(o.mu);
  EXPECT_TRUE(o.committed) << host;
  for (const ClientId c : {kStationary, kMover}) {
    for (std::uint32_t seq = 1; seq <= kPubs; ++seq) {
      EXPECT_EQ((o.deliveries[{c, {kPublisher, seq}}]), 1)
          << host << ": client " << c << " publication " << seq;
    }
  }
}

TEST(HostShape, SimAndTcpAgreeOnOneMove) {
  const Overlay overlay = Overlay::chain(5);

  Outcome on_sim;
  SimNetwork sim(overlay, no_covering());
  observe(sim, on_sim);
  run_script(sim, [&] { sim.run(); }, on_sim);
  expect_exactly_once(on_sim, "sim");

  Outcome on_tcp;
  TcpTransport tcp(overlay, 0, no_covering());
  observe(tcp, on_tcp);
  ASSERT_TRUE(tcp.start());
  run_script(tcp, [&] { tcp.drain(); }, on_tcp);
  tcp.stop();
  expect_exactly_once(on_tcp, "tcp");

  EXPECT_FALSE(on_sim.rows.empty());
  EXPECT_EQ(on_sim.rows, on_tcp.rows);
}

/// The script with both coordinator timeouts armed. They are long enough
/// that a healthy move never aborts on a loaded machine under a sanitizer,
/// and the TCP run waits them out, so every armed timer fires (the sim's
/// settle runs its timers anyway).
void agree_with_timeouts_armed(MobilityProtocol protocol) {
  constexpr double kTimeout = 1.0;
  const Overlay overlay = Overlay::chain(5);
  MobilityConfig mc;
  mc.protocol = protocol;
  mc.negotiate_timeout = kTimeout;
  mc.prepare_timeout = kTimeout;

  Outcome on_sim;
  SimNetwork sim(overlay, no_covering(), NetworkProfile::lan(), mc);
  observe(sim, on_sim);
  run_script(sim, [&] { sim.run(); }, on_sim);
  expect_exactly_once(on_sim, "sim");

  Outcome on_tcp;
  TcpTransport tcp(overlay, 0, no_covering(), mc);
  observe(tcp, on_tcp);
  ASSERT_TRUE(tcp.start());
  run_script(tcp, [&] { tcp.drain(); }, on_tcp, [&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kTimeout * 1.5));
    tcp.drain();
  });
  tcp.stop();
  expect_exactly_once(on_tcp, "tcp");

  EXPECT_FALSE(on_sim.rows.empty());
  EXPECT_EQ(on_sim.rows, on_tcp.rows);
}

TEST(HostShape, SimAndTcpAgreeWithTimeoutsArmedReconfiguration) {
  agree_with_timeouts_armed(MobilityProtocol::Reconfiguration);
}

TEST(HostShape, SimAndTcpAgreeWithTimeoutsArmedTraditional) {
  agree_with_timeouts_armed(MobilityProtocol::Traditional);
}

}  // namespace
}  // namespace tmps
