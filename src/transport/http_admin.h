// Minimal per-broker HTTP admin endpoint (loopback only).
//
// One tiny blocking HTTP/1.1 server per broker exposes the observability
// surfaces over real sockets:
//
//   GET /healthz   liveness + a one-object JSON summary (peers, hosted
//                  clients, in-flight movement transactions)
//   GET /metrics   the broker host's MetricsRegistry in Prometheus text
//                  exposition format
//   GET /routing   the broker's live routing snapshot (introspect.h) as
//                  JSONL — the same line format tools/tmps_audit consumes
//   GET /flight    the broker's flight-recorder ring (last-N protocol/data
//                  events) as NDJSON; 404 when the recorder is disabled
//   GET /timeseries the host's windowed metrics time-series as NDJSON (one
//                  object per window) — what tools/tmps_top renders
//
// The server is deliberately small: exact-path GET routing, one connection
// served at a time, Connection: close. It is an *admin* plane for probes and
// scrapes, not a data plane, and binds 127.0.0.1 only (the overlay is a
// trusted cluster fabric in the paper's model). Disabled by default; hosts
// opt in via BrokerConfig::Admin (broker/broker_config.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace tmps {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpAdminServer {
 public:
  /// Handlers run on the server's accept thread, one request at a time;
  /// they may take locks but must not block indefinitely.
  using Handler = std::function<HttpResponse()>;

  HttpAdminServer() = default;
  ~HttpAdminServer();

  HttpAdminServer(const HttpAdminServer&) = delete;
  HttpAdminServer& operator=(const HttpAdminServer&) = delete;

  /// Registers an exact-match route ("/healthz"). Call before start().
  void add_route(std::string path, Handler handler);

  /// Binds 127.0.0.1:port (0 = OS-assigned ephemeral port) and spawns the
  /// accept thread. Returns false on socket failure.
  bool start(std::uint16_t port = 0);
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

 private:
  void serve_loop();
  void serve_one(int fd);

  std::map<std::string, Handler> routes_;
  // Atomic: stop() resets it while the serve thread is still reading.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace tmps
