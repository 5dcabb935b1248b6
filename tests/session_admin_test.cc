// GET /sessions admin view: the JSON document sessions_json renders and the
// HTTP route install_admin_routes registers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "pubsub/workload.h"
#include "session/session_admin.h"
#include "sim/network.h"
#include "transport/http_admin.h"

namespace tmps {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
/// response, empty on connect failure.
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
  for (std::size_t off = 0; off < req.size();) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
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

BrokerConfig admin_cfg() {
  BrokerConfig bc;
  bc.session.enabled = true;
  bc.session.grace = 5.0;
  return bc;
}

struct AdminRig {
  AdminRig()
      : overlay(Overlay::chain(2)),
        net(overlay, admin_cfg()),
        mgr(net.sessions(1)) {}

  Overlay overlay;
  SimNetwork net;
  session::SessionManager* mgr;
};

TEST(SessionAdmin, JsonExposesConfigCountersAndRows) {
  AdminRig r;
  r.net.engine(1).connect_client(100);
  r.net.engine(1).connect_client(101);
  const auto tok =
      r.mgr->open(100, make_publication({0, 0}, 100, 0));
  ASSERT_NE(tok, session::kNoToken);
  ASSERT_NE(r.mgr->open(101), session::kNoToken);
  r.mgr->disconnect(101);

  const std::string json = session::sessions_json(*r.mgr);
  EXPECT_NE(json.find("\"broker\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"grace\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"live\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"opened\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"expired_tombstones\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_overflow\":0"), std::string::npos) << json;
  // Per-session rows carry state names, tokens and the will flag.
  EXPECT_NE(json.find("\"client\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"client\":101"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"active\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"detached\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"has_will\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"token\":" + std::to_string(tok)), std::string::npos)
      << json;
}

TEST(SessionAdmin, JsonReflectsExpiryTombstones) {
  AdminRig r;
  r.net.engine(1).connect_client(100);
  ASSERT_NE(r.mgr->open(100), session::kNoToken);
  r.mgr->disconnect(100);
  r.net.events().schedule_at(6.0, [] {});
  r.net.run();
  r.mgr->tick();

  const std::string json = session::sessions_json(*r.mgr);
  EXPECT_NE(json.find("\"live\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"expired_tombstones\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"expired\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"expired\""), std::string::npos) << json;
}

TEST(SessionAdmin, HttpRouteServesTheDocument) {
  AdminRig r;
  r.net.engine(1).connect_client(100);
  ASSERT_NE(r.mgr->open(100), session::kNoToken);

  HttpAdminServer server;
  session::install_admin_routes(server, *r.mgr);
  ASSERT_TRUE(server.start(0));
  const std::string resp = http_get(server.port(), "/sessions");
  server.stop();

  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/json"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"broker\":1"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"client\":100"), std::string::npos) << resp;
}

}  // namespace
}  // namespace tmps
