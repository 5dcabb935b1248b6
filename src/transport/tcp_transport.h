// A real-sockets host for the broker overlay: every broker listens on a
// loopback TCP port, overlay links are TCP connections, and messages travel
// as length-prefixed frames produced by the binary codec (pubsub/codec.h).
//
// This is the "networking boilerplate" backend: the same Broker and
// MobilityEngine objects the simulator benchmarks run here over an actual
// byte stream — serialization, framing, partial reads and connection
// management included. Loopback-only by design (the overlay is a trusted
// cluster fabric in the paper's model).
//
// Frame format on the wire:  [u32 length][u32 sender broker id][message
// bytes]  (little-endian), where `message bytes` is encode_message().
//
// Edge clients (session/tcp_session_client.h) dial the same listener and
// identify themselves with the kClientHello sentinel followed by their u64
// client id; their frames use sender id 0 and are routed to the session
// frame handler instead of the broker overlay input.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/host_core.h"
#include "transport/http_admin.h"

namespace tmps {

class TcpTransport final : public HostCore {
 public:
  /// Hello sentinel an edge client sends instead of a broker id (broker ids
  /// are small; this can never collide).
  static constexpr std::uint32_t kClientHello = 0xFFFFFFFFu;
  /// Brokers listen on 127.0.0.1:base_port+broker_id. Pass base_port = 0 to
  /// let the OS pick ephemeral ports (recommended for tests). The admin
  /// plane is configured via broker_cfg.admin (BrokerConfig consolidates
  /// what used to be a separate AdminConfig parameter).
  TcpTransport(const Overlay& overlay, std::uint16_t base_port = 0,
               BrokerConfig broker_cfg = {}, MobilityConfig mobility_cfg = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds listeners, establishes the overlay's TCP links, spawns reader
  /// threads. Returns false on any socket failure.
  bool start();
  void stop();

  std::uint16_t port_of(BrokerId b) const;
  /// Admin endpoint port of broker b (0 when the admin plane is disabled or
  /// not yet started).
  std::uint16_t admin_port_of(BrokerId b) const;

  /// Runs a client operation on broker `b` under its lock, queues the
  /// resulting messages on their links before releasing it, and then
  /// writes them to the sockets.
  void run_on(BrokerId b, const Op& op) override;

  /// Blocks until no frame is in flight and brokers have been idle briefly.
  void drain();

  /// Frames that arrived but failed to decode (corruption canary).
  std::uint64_t decode_failures() const { return decode_failures_.load(); }

  // --- edge-client connections ----------------------------------------------

  /// Frames arriving over an edge-client connection at broker `b` are handed
  /// here (off the client reader thread). Without a handler they are fed to
  /// the broker like an overlay frame from itself.
  using SessionFrameHandler =
      std::function<void(BrokerId, ClientId, const Message&)>;
  void set_session_frame_handler(SessionFrameHandler fn) {
    session_frames_ = std::move(fn);
  }
  /// Fires when an edge-client connection drops (EOF/error on its socket).
  using ClientGoneHandler = std::function<void(BrokerId, ClientId)>;
  void set_client_gone_handler(ClientGoneHandler fn) {
    client_gone_ = std::move(fn);
  }
  /// Sends a message down the edge-client connection `client` holds to
  /// broker `b`; false when no such connection is live.
  bool send_to_client(BrokerId b, ClientId client, const Message& msg);

  /// Registers an extra admin route served by broker `b`'s admin endpoint
  /// (e.g. GET /sessions). Call before start().
  void add_admin_route(BrokerId b, std::string path,
                       std::function<HttpResponse()> handler);

  /// Flushes buffered trace records and a metrics snapshot to JSONL files
  /// (appending). Either path may be empty to skip that sink.
  void dump_observability(const std::string& trace_path,
                          const std::string& metrics_path,
                          std::string_view run = {});

  // --- RuntimeEnv (the rest is HostCore's; timeseries() is ticked on the
  // timer thread every broker_cfg.obs.timeseries_interval seconds when
  // positive, and served at GET /timeseries) -------------------------------
  SimTime now() const override;
  void schedule(double delay, std::function<void()> fn) override;

 private:
  // Messages on their way to one neighbour. A broker's outputs are queued
  // here under its state lock, in the order it produced them, and written
  // after the lock is released by one thread at a time. Links therefore
  // stay FIFO, and no thread waits on a socket while it holds a broker.
  struct Outbox {
    std::mutex mu;
    std::vector<Message> queue;
    bool writing = false;  // a thread is draining this outbox
  };
  struct Node {
    std::mutex state_mu;
    // Atomic: stop() resets it while the accept thread is still reading.
    std::atomic<int> listen_fd{-1};
    std::uint16_t port = 0;
    std::thread accept_thread;
    // Established links to neighbours: fd per peer, guarded for writes.
    std::mutex peers_mu;
    std::map<BrokerId, int> peer_fd;
    // One per neighbour, built with the node: the map itself never changes.
    std::map<BrokerId, Outbox> outbox;
    std::vector<std::thread> readers;
    // Edge-client connections (kClientHello): fd per client id.
    std::mutex clients_mu;
    std::map<ClientId, int> client_fd;
    std::vector<std::thread> client_readers;
    std::unique_ptr<HttpAdminServer> admin;
  };

  bool start_admin();

  bool connect_links();
  void accept_loop(BrokerId b);
  void reader_loop(BrokerId self, BrokerId peer, int fd);
  void client_reader_loop(BrokerId self, ClientId client, int fd);
  /// Counts and queues `outputs` on `from`'s outboxes, writing no socket.
  /// Callers hold `from`'s state lock: every engine and service callback
  /// runs inside run_on or process_frame, which flush on release.
  void transmit(BrokerId from, Broker::Outputs outputs) override;
  /// Encodes and writes out `from`'s queued messages, except on links
  /// another thread is already writing. Called with no broker lock held.
  void flush(BrokerId from);
  void process_frame(BrokerId self, BrokerId from, const Message& msg);
  void timer_loop();

  std::uint16_t base_port_;
  BrokerConfig::Admin admin_cfg_;
  BrokerConfig::Obs obs_cfg_;
  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* frames_received_ = nullptr;
  obs::Counter* decode_failures_metric_ = nullptr;
  obs::Counter* send_failures_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  SessionFrameHandler session_frames_;
  ClientGoneHandler client_gone_;
  std::vector<std::tuple<BrokerId, std::string, std::function<HttpResponse()>>>
      extra_admin_routes_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> decode_failures_{0};
  // Signalled by accept_loop after it registers a peer link; start() waits
  // on it until every broker holds a link to each of its neighbours.
  std::mutex links_mu_;
  std::condition_variable links_cv_;
  std::chrono::steady_clock::time_point epoch_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  struct Timer {
    std::chrono::steady_clock::time_point at;
    std::function<void()> fn;
    bool operator<(const Timer& o) const { return at > o.at; }
  };
  std::vector<Timer> timers_;
  std::thread timer_thread_;
};

}  // namespace tmps
