// The balancer's HTTP admin surface: /control (state + smoothed loads as
// JSON) via control::install_admin_routes, and the control_* gauges showing
// up in a Prometheus /metrics scrape of the host registry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>

#include "control/control_admin.h"
#include "control/scenario_control.h"
#include "core/scenario.h"
#include "pubsub/workload.h"

namespace tmps {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
/// response (status line + headers + body), empty on connect failure.
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

/// A short balancer-enabled skewed run whose registry and balancer the admin
/// server then serves.
struct BalancedRun {
  std::shared_ptr<control::BalancerHandle> handle;
  std::unique_ptr<Scenario> scenario;

  BalancedRun() {
    ScenarioConfig cfg;
    cfg.broker.subscription_covering = false;
    cfg.broker.advertisement_covering = false;
    cfg.workload = WorkloadKind::Distinct;
    cfg.total_clients = 30;
    cfg.mover_override = [](std::uint32_t) { return false; };
    const auto homes = zipf_broker_placement(30, 14, 1.5, 5);
    cfg.home_override = [homes](std::uint32_t k) { return homes[k]; };
    cfg.publish_interval = 0.25;
    cfg.duration = 40.0;
    cfg.warmup = 10.0;
    cfg.broker.control.enabled = true;
    cfg.broker.control.sample_interval = 1.0;
    cfg.broker.control.start_delay = 6.0;
    cfg.broker.control.imbalance_high = 1.3;
    cfg.broker.control.imbalance_low = 1.1;
    cfg.broker.control.client_cooldown = 5.0;
    handle = control::install_balancer(cfg);
    scenario = std::make_unique<Scenario>(std::move(cfg));
    scenario->run();
  }
};

TEST(ControlAdmin, ControlRouteServesStateAndLoads) {
  BalancedRun run;
  ASSERT_NE(run.handle->balancer, nullptr);

  HttpAdminServer server;
  control::install_admin_routes(server, *run.handle->balancer);
  ASSERT_TRUE(server.start(0));

  const std::string resp = http_get(server.port(), "/control");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"imbalance_ratio\":"), std::string::npos);
  EXPECT_NE(resp.find("\"loads\":{"), std::string::npos);
  // Per-broker load entries exist once the estimator has sampled twice.
  EXPECT_NE(resp.find("\"1\":"), std::string::npos);
  server.stop();
}

TEST(ControlAdmin, MetricsScrapeCarriesBalancerGauges) {
  BalancedRun run;
  obs::MetricsRegistry* mr = run.scenario->net().metrics();

  HttpAdminServer server;
  server.add_route("/metrics", [mr] {
    std::ostringstream os;
    mr->write_prometheus(os);
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = os.str();
    return resp;
  });
  ASSERT_TRUE(server.start(0));

  const std::string body = http_get(server.port(), "/metrics");
  EXPECT_NE(body.find("control_imbalance_ratio"), std::string::npos);
  EXPECT_NE(body.find("control_movements_initiated_total"), std::string::npos);
  EXPECT_NE(body.find("control_movements_committed_total"), std::string::npos);
  EXPECT_NE(body.find("control_cooldown_suppressions_total"),
            std::string::npos);
  EXPECT_NE(body.find("control_broker_load{broker=\"1\"}"), std::string::npos);
  server.stop();
}

TEST(ControlAdmin, ControlJsonIsWellFormedWithoutTicks) {
  // A balancer that never ticked still serves a valid (empty-loads) body.
  Overlay overlay = Overlay::chain(3);
  SimNetwork net(overlay);
  control::Balancer balancer(ControlConfig{}, net);
  const std::string json = control::control_json(balancer);
  EXPECT_EQ(json.find("{\"state\":{"), 0u);
  EXPECT_NE(json.find("\"loads\":{}"), std::string::npos);
}

}  // namespace
}  // namespace tmps
