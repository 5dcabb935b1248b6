// Session layer over real loopback sockets: TcpSessionClient handshake and
// delivery push, disconnect/grace/reconnect-resume, connectivity-triggered
// movement on a resume at a different broker, reconnect backoff, and the
// per-broker GET /sessions route on the live admin server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "pubsub/workload.h"
#include "session/tcp_session_client.h"
#include "session/tcp_session_host.h"

namespace tmps {
namespace {

using session::SessionManager;
using session::TcpSessionClient;
using session::TcpSessionHost;

constexpr ClientId kEdge = 700;
constexpr ClientId kPublisher = 600;

/// Polls `pred` until it holds or `timeout_s` elapses.
bool eventually(double timeout_s, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

class SessionTcpTest : public ::testing::Test {
 protected:
  SessionTcpTest() : overlay_(Overlay::chain(3)) {
    BrokerConfig bc;
    bc.subscription_covering = false;
    bc.advertisement_covering = false;
    bc.admin.enabled = true;
    bc.session.enabled = true;
    // Liveness driven by socket EOF in this test.
    bc.session.heartbeat_interval = 0;
    bc.session.grace = 30.0;          // long grace: nothing expires mid-test
    bc.session.tick_interval = 0.05;  // fast sweeps so adoption is quick
    net_ = std::make_unique<TcpTransport>(overlay_, 0, bc);
    host_ = std::make_unique<TcpSessionHost>(*net_);
    started_ = net_->start();
    host_->start();
  }
  ~SessionTcpTest() override { net_->stop(); }

  /// Stationary publisher at broker 3 covering the whole space.
  void setup_publisher() {
    net_->run_on(3, [](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kPublisher);
      e.advertise(kPublisher, full_space_advertisement(), out);
    });
    net_->drain();
  }

  void publish(std::uint32_t seq) {
    net_->run_on(3, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(kPublisher, make_publication({kPublisher, seq}, 100, 0), out);
    });
    net_->drain();
  }

  static int count(const std::vector<Publication>& pubs, PublicationId id) {
    int n = 0;
    for (const auto& p : pubs) {
      if (p.id() == id) ++n;
    }
    return n;
  }

  Overlay overlay_;
  std::unique_ptr<TcpTransport> net_;
  std::unique_ptr<TcpSessionHost> host_;
  bool started_ = false;
};

TEST_F(SessionTcpTest, OpenSubscribeDeliverOverSockets) {
  ASSERT_TRUE(started_);
  setup_publisher();

  TcpSessionClient c(kEdge);
  ASSERT_TRUE(c.connect(net_->port_of(1)));
  ASSERT_TRUE(c.open_session());
  ASSERT_GT(c.wait_for_ack(0, 5.0), 0u);
  ASSERT_TRUE(c.last_ack().has_value());
  EXPECT_EQ(c.last_ack()->verdict, SessionVerdict::Resumed);
  EXPECT_EQ(SessionManager::home_of(c.token()), 1u);

  ASSERT_TRUE(c.subscribe(
      {{kEdge, 1}, workload_filter(WorkloadKind::Covered, 1)}));
  net_->drain();
  ASSERT_TRUE(eventually(2.0, [&] {
    std::size_t subs = 0;
    net_->run_on(1, [&](MobilityEngine& e, Broker::Outputs&) {
      if (const ClientStub* s = e.find_client(kEdge)) {
        subs = s->subscriptions().size();
      }
    });
    return subs == 1;
  }));

  publish(10);
  EXPECT_TRUE(eventually(5.0, [&] {
    return count(c.deliveries(), {kPublisher, 10}) == 1;
  }));

  // The admin server exposes the session.
  const std::string resp = http_get(net_->admin_port_of(1), "/sessions");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("\"client\":700"), std::string::npos) << resp;

  ASSERT_TRUE(c.heartbeat());
  ASSERT_TRUE(c.close_session(false));
}

TEST_F(SessionTcpTest, DropAndReconnectResumesAndReplaysBuffer) {
  ASSERT_TRUE(started_);
  setup_publisher();

  TcpSessionClient c(kEdge);
  ASSERT_TRUE(c.connect(net_->port_of(1)));
  ASSERT_TRUE(c.open_session());
  ASSERT_GT(c.wait_for_ack(0, 5.0), 0u);
  const std::uint64_t tok = c.token();
  ASSERT_NE(tok, 0u);
  ASSERT_TRUE(c.subscribe(
      {{kEdge, 1}, workload_filter(WorkloadKind::Covered, 1)}));
  net_->drain();

  // The link flakes out; the broker detaches the session and buffers.
  c.disconnect();
  ASSERT_TRUE(eventually(5.0, [&] {
    bool detached = false;
    net_->run_on(1, [&](MobilityEngine&, Broker::Outputs&) {
      detached = net_->sessions(1)->state_of(kEdge) ==
                 session::SessionState::Detached;
    });
    return detached;
  }));
  publish(11);
  EXPECT_EQ(count(c.deliveries(), {kPublisher, 11}), 0);

  // Reconnect to the same broker and resume with the stored token: the
  // buffered notification replays down the fresh socket, exactly once.
  const std::size_t acks_before = c.acks_seen();
  ASSERT_TRUE(c.connect(net_->port_of(1)));
  ASSERT_TRUE(c.resume_session());
  ASSERT_GT(c.wait_for_ack(acks_before, 5.0), acks_before);
  EXPECT_EQ(c.last_ack()->verdict, SessionVerdict::Resumed);
  EXPECT_TRUE(eventually(5.0, [&] {
    return count(c.deliveries(), {kPublisher, 11}) == 1;
  }));
  publish(12);
  EXPECT_TRUE(eventually(5.0, [&] {
    return count(c.deliveries(), {kPublisher, 12}) == 1;
  }));
  EXPECT_EQ(count(c.deliveries(), {kPublisher, 11}), 1) << "no duplicate";
}

TEST_F(SessionTcpTest, ResumeAtAnotherBrokerMovesTheSession) {
  ASSERT_TRUE(started_);
  setup_publisher();

  TcpSessionClient c(kEdge);
  ASSERT_TRUE(c.connect(net_->port_of(1)));
  ASSERT_TRUE(c.open_session());
  ASSERT_GT(c.wait_for_ack(0, 5.0), 0u);
  const std::uint64_t tok = c.token();
  ASSERT_TRUE(c.subscribe(
      {{kEdge, 1}, workload_filter(WorkloadKind::Covered, 1)}));
  net_->drain();

  // Reappear at broker 2: the home initiates a movement, broker 2 adopts
  // the session and pushes a re-minted token down the new socket.
  c.disconnect();
  ASSERT_TRUE(c.connect(net_->port_of(2)));
  ASSERT_TRUE(c.resume_session(tok));
  ASSERT_TRUE(eventually(10.0, [&] {
    return c.token() != tok && SessionManager::home_of(c.token()) == 2;
  })) << "adoption ack with a re-homed token";

  bool moved = false;
  net_->run_on(2, [&](MobilityEngine& e, Broker::Outputs&) {
    moved = e.find_client(kEdge) != nullptr;
  });
  EXPECT_TRUE(moved) << "stub re-homed to broker 2";

  // Deliveries now reach the client through its new broker.
  publish(20);
  EXPECT_TRUE(eventually(5.0, [&] {
    return count(c.deliveries(), {kPublisher, 20}) == 1;
  }));
}

TEST(SessionTcpClient, ReconnectBackoffGivesUpAfterMaxAttempts) {
  session::ClientOptions opt;
  opt.backoff_base = 0.005;
  opt.backoff_max = 0.02;
  opt.max_attempts = 3;
  TcpSessionClient c(42, opt);
  EXPECT_GE(c.jitter(), 0.0);
  EXPECT_LT(c.jitter(), 1.0);
  // Nobody listens on port 1: every attempt fails, with backoff between.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.connect(1));
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(c.attempts_made(), 3u);
  EXPECT_GE(took, 0.005 * (1.0 + c.jitter())) << "backoff must actually wait";
  // Distinct clients derive distinct deterministic jitter.
  TcpSessionClient d(43, opt);
  EXPECT_NE(c.jitter(), d.jitter());
}

}  // namespace
}  // namespace tmps
