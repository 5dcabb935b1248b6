#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "pubsub/codec.h"
#include "transport/framing.h"

namespace tmps {

TcpTransport::TcpTransport(const Overlay& overlay, std::uint16_t base_port,
                           BrokerConfig broker_cfg, MobilityConfig mobility_cfg)
    : HostCore(overlay, broker_cfg, mobility_cfg),
      base_port_(base_port),
      admin_cfg_(broker_cfg.admin),
      obs_cfg_(broker_cfg.obs) {
  frames_sent_ = &metrics()->counter("tcp_frames_sent_total");
  bytes_sent_ = &metrics()->counter("tcp_bytes_sent_total");
  frames_received_ = &metrics()->counter("tcp_frames_received_total");
  decode_failures_metric_ = &metrics()->counter("tcp_decode_failures_total");
  send_failures_ = &metrics()->counter("tcp_send_failures_total");
  nodes_.resize(overlay.broker_count() + 1);
  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    nodes_[b] = std::make_unique<Node>();
    for (const BrokerId peer : overlay.neighbors(b)) nodes_[b]->outbox[peer];
  }
  epoch_ = std::chrono::steady_clock::now();
}

TcpTransport::~TcpTransport() { stop(); }

std::uint16_t TcpTransport::port_of(BrokerId b) const {
  return nodes_[b]->port;
}

std::uint16_t TcpTransport::admin_port_of(BrokerId b) const {
  const Node& node = *nodes_[b];
  return node.admin ? node.admin->port() : 0;
}

SimTime TcpTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

bool TcpTransport::start() {
  if (running_.exchange(true)) return true;
  epoch_ = std::chrono::steady_clock::now();

  // Bind one listener per broker.
  for (BrokerId b = 1; b < nodes_.size(); ++b) {
    Node& node = *nodes_[b];
    node.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (node.listen_fd < 0) return false;
    int one = 1;
    ::setsockopt(node.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(base_port_ == 0 ? 0
                              : static_cast<std::uint16_t>(base_port_ + b));
    if (::bind(node.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(node.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    node.port = ntohs(addr.sin_port);
    if (::listen(node.listen_fd, 8) != 0) return false;
    node.accept_thread = std::thread([this, b] { accept_loop(b); });
  }

  if (!connect_links()) return false;
  if (admin_cfg_.enabled && !start_admin()) return false;

  // Wait until every node holds a link to each of its neighbours (the
  // accepting side registers asynchronously).
  {
    std::unique_lock links(links_mu_);
    links_cv_.wait_for(links, std::chrono::milliseconds(2500), [this] {
      for (BrokerId b = 1; b < nodes_.size(); ++b) {
        std::lock_guard lock(nodes_[b]->peers_mu);
        if (nodes_[b]->peer_fd.size() != overlay().neighbors(b).size()) {
          return false;
        }
      }
      return true;
    });
  }

  timer_thread_ = std::thread([this] { timer_loop(); });
  if (obs_cfg_.timeseries_interval > 0) {
    // Open-ended: the loop ends with the timer thread at stop().
    tick_timeseries(obs_cfg_.timeseries_interval,
                    std::numeric_limits<double>::infinity());
  }
  return true;
}

bool TcpTransport::start_admin() {
  for (BrokerId b = 1; b < nodes_.size(); ++b) {
    Node& node = *nodes_[b];
    node.admin = std::make_unique<HttpAdminServer>();
    node.admin->add_route("/healthz", [this, b, &node]() -> HttpResponse {
      const obs::BrokerSnapshot snap = snapshot(b);
      std::size_t peers = 0;
      {
        std::lock_guard lock(node.peers_mu);
        peers = node.peer_fd.size();
      }
      std::ostringstream os;
      os << "{\"status\":\"ok\",\"broker\":" << b << ",\"time\":" << now()
         << ",\"peers\":" << peers
         << ",\"hosted_clients\":" << snap.clients.size()
         << ",\"in_flight_txns\":" << snap.txns.size() << "}\n";
      return {200, "application/json", os.str()};
    });
    node.admin->add_route("/metrics", [this]() -> HttpResponse {
      flush_profilers();
      std::ostringstream os;
      metrics()->write_prometheus(os);
      return {200, "text/plain; version=0.0.4; charset=utf-8", os.str()};
    });
    node.admin->add_route("/profile", [this, b]() -> HttpResponse {
      obs::StageProfiler* prof = broker(b).profiler();
      if (!prof) return {404, "text/plain", "profiler disabled\n"};
      prof->flush(metrics());
      std::ostringstream os;
      prof->write_ndjson(os);
      return {200, "application/x-ndjson", os.str()};
    });
    node.admin->add_route("/profile/collapsed", [this, b]() -> HttpResponse {
      obs::StageProfiler* prof = broker(b).profiler();
      if (!prof) return {404, "text/plain", "profiler disabled\n"};
      prof->flush(metrics());
      std::ostringstream os;
      prof->write_collapsed(os);
      return {200, "text/plain", os.str()};
    });
    node.admin->add_route("/routing", [this, b]() -> HttpResponse {
      return {200, "application/x-ndjson", snapshot(b).to_jsonl() + "\n"};
    });
    node.admin->add_route("/flight", [this, b]() -> HttpResponse {
      const obs::FlightRecorder* fr = broker(b).flight();
      if (!fr) return {404, "text/plain", "flight recorder disabled\n"};
      std::ostringstream os;
      fr->write_jsonl(os, b, "http");
      return {200, "application/x-ndjson", os.str()};
    });
    node.admin->add_route("/timeseries", [this]() -> HttpResponse {
      std::ostringstream os;
      timeseries().write_ndjson(os);
      return {200, "application/x-ndjson", os.str()};
    });
    for (const auto& [rb, path, handler] : extra_admin_routes_) {
      if (rb == b) node.admin->add_route(path, handler);
    }
    const std::uint16_t port =
        admin_cfg_.base_port == 0
            ? 0
            : static_cast<std::uint16_t>(admin_cfg_.base_port + b);
    if (!node.admin->start(port)) return false;
  }
  return true;
}

bool TcpTransport::connect_links() {
  // The lower-numbered endpoint dials.
  for (const auto& [a, b] : overlay().edges()) {
    const BrokerId lo = std::min(a, b), hi = std::max(a, b);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(nodes_[hi]->port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Hello: tell the acceptor who we are.
    const std::uint32_t hello = lo;
    if (!write_full(fd, &hello, sizeof(hello))) return false;

    Node& node = *nodes_[lo];
    {
      std::lock_guard lock(node.peers_mu);
      node.peer_fd[hi] = fd;
      node.readers.emplace_back(
          [this, lo, hi, fd] { reader_loop(lo, hi, fd); });
    }
  }
  return true;
}

void TcpTransport::accept_loop(BrokerId b) {
  Node& node = *nodes_[b];
  while (running_.load()) {
    const int fd = ::accept(node.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::uint32_t hello = 0;
    if (!read_full(fd, &hello, sizeof(hello))) {
      ::close(fd);
      continue;
    }
    if (hello == kClientHello) {
      // Edge client: the hello continues with its u64 client id.
      std::uint64_t client = 0;
      if (!read_full(fd, &client, sizeof(client)) || client == 0) {
        ::close(fd);
        continue;
      }
      std::lock_guard lock(node.clients_mu);
      if (auto it = node.client_fd.find(client); it != node.client_fd.end()) {
        // Reconnect before the old socket died: the new connection wins.
        ::shutdown(it->second, SHUT_RDWR);
      }
      node.client_fd[client] = fd;
      node.client_readers.emplace_back([this, b, client, fd] {
        client_reader_loop(b, ClientId{client}, fd);
      });
      continue;
    }
    if (hello == 0 || hello >= nodes_.size() ||
        !overlay().are_neighbors(b, hello)) {
      ::close(fd);
      continue;
    }
    {
      // Registered under links_mu_, which start() checks the links under,
      // so its wait cannot miss this wake-up.
      std::lock_guard links(links_mu_);
      std::lock_guard lock(node.peers_mu);
      node.peer_fd[hello] = fd;
      node.readers.emplace_back(
          [this, b, peer = BrokerId{hello}, fd] { reader_loop(b, peer, fd); });
    }
    links_cv_.notify_all();
  }
}

void TcpTransport::client_reader_loop(BrokerId self, ClientId client, int fd) {
  Frame frame;
  while (running_.load() && read_frame(fd, frame)) {
    const std::optional<Message> msg = decode_message(frame.message());
    if (!msg) {
      ++decode_failures_;
      decode_failures_metric_->inc();
      continue;
    }
    frames_received_->inc();
    if (session_frames_) {
      session_frames_(self, client, *msg);
    } else {
      // No session layer attached: feed it to the broker like a local frame.
      run_on(self, [&](MobilityEngine& e, Broker::Outputs& out) {
        out = e.broker().on_message(self, *msg);
      });
    }
  }
  // Connection gone: deregister (unless a reconnect already replaced the fd)
  // and tell the session layer the client vanished.
  Node& node = *nodes_[self];
  bool was_current = false;
  {
    std::lock_guard lock(node.clients_mu);
    auto it = node.client_fd.find(client);
    if (it != node.client_fd.end() && it->second == fd) {
      node.client_fd.erase(it);
      was_current = true;
    }
  }
  ::close(fd);
  if (was_current && running_.load() && client_gone_) {
    client_gone_(self, client);
  }
}

bool TcpTransport::send_to_client(BrokerId b, ClientId client,
                                  const Message& msg) {
  std::string frame;
  append_frame(frame, b, msg);
  Node& node = *nodes_[b];
  std::lock_guard lock(node.clients_mu);
  auto it = node.client_fd.find(client);
  if (it == node.client_fd.end() ||
      !write_full(it->second, frame.data(), frame.size())) {
    send_failures_->inc();
    return false;
  }
  frames_sent_->inc();
  bytes_sent_->inc(frame.size());
  return true;
}

void TcpTransport::add_admin_route(BrokerId b, std::string path,
                                   std::function<HttpResponse()> handler) {
  extra_admin_routes_.emplace_back(b, std::move(path), std::move(handler));
}

void TcpTransport::reader_loop(BrokerId self, BrokerId peer, int fd) {
  Frame frame;
  // A closed link or a length out of bounds ends the loop (link dropped).
  while (running_.load() && read_frame(fd, frame)) {
    std::optional<Message> msg;
    {
      TMPS_PROF_STAGE(broker(self).profiler(), obs::Stage::kDecode);
      msg = decode_message(frame.message());
    }
    if (frame.sender != peer || !msg) {
      ++decode_failures_;
      decode_failures_metric_->inc();
      retire(kNoTxn);  // its cause, if any, is unknowable now
      continue;
    }
    frames_received_->inc();
    process_frame(self, frame.sender, *msg);
  }
}

void TcpTransport::process_frame(BrokerId self, BrokerId from,
                                 const Message& msg) {
  {
    std::lock_guard lock(nodes_[self]->state_mu);
    transmit(self, broker(self).on_message(from, msg));
  }
  flush(self);
  retire(msg.cause);
}

void TcpTransport::transmit(BrokerId from, Broker::Outputs outputs) {
  Node& node = *nodes_[from];
  for (auto& [to, msg] : outputs) {
    count_send(from, to, msg);
    Outbox& box = node.outbox.at(to);
    std::lock_guard lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
}

void TcpTransport::flush(BrokerId from) {
  Node& node = *nodes_[from];
  obs::StageProfiler* prof = broker(from).profiler();
  for (auto& [to, box] : node.outbox) {
    std::unique_lock lock(box.mu);
    // A thread already writing this link drains what was queued behind it.
    if (box.writing) continue;
    box.writing = true;
    while (!box.queue.empty()) {
      const std::vector<Message> batch = std::exchange(box.queue, {});
      lock.unlock();
      std::string frames;
      for (const Message& msg : batch) {
        TMPS_PROF_STAGE(prof, obs::Stage::kEncode);
        append_frame(frames, from, msg);
      }
      bool ok = false;
      {
        TMPS_PROF_STAGE(prof, obs::Stage::kEnqueue);
        std::lock_guard peers(node.peers_mu);
        auto it = node.peer_fd.find(to);
        ok = it != node.peer_fd.end() &&
             write_full(it->second, frames.data(), frames.size());
      }
      if (ok) {
        frames_sent_->inc(batch.size());
        bytes_sent_->inc(frames.size());
      } else {
        // Link gone: the messages are lost at this layer (the paper's fault
        // model masks this with persistent queues; see DurableNode).
        send_failures_->inc(batch.size());
        for (const Message& msg : batch) retire(msg.cause);
      }
      lock.lock();
    }
    box.writing = false;
  }
}

void TcpTransport::run_on(BrokerId b, const Op& op) {
  {
    std::lock_guard lock(nodes_[b]->state_mu);
    Broker::Outputs out;
    op(engine(b), out);
    transmit(b, std::move(out));
  }
  flush(b);
}

void TcpTransport::drain() {
  int idle = 0;
  while (idle < 5) {
    if (in_flight() == 0) {
      ++idle;
    } else {
      idle = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void TcpTransport::schedule(double delay, std::function<void()> fn) {
  std::lock_guard lock(timer_mu_);
  timers_.push_back(
      Timer{std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(delay)),
            std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end());
  timer_cv_.notify_all();
}

void TcpTransport::timer_loop() {
  std::unique_lock lock(timer_mu_);
  while (running_.load()) {
    if (timers_.empty()) {
      timer_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    const auto next = timers_.front().at;
    if (timer_cv_.wait_until(lock, next) == std::cv_status::timeout &&
        !timers_.empty() && timers_.front().at <= next) {
      std::pop_heap(timers_.begin(), timers_.end());
      auto fn = std::move(timers_.back().fn);
      timers_.pop_back();
      lock.unlock();
      fn();
      lock.lock();
    }
  }
}

void TcpTransport::dump_observability(const std::string& trace_path,
                                      const std::string& metrics_path,
                                      std::string_view run) {
  if (!trace_path.empty()) {
    std::ofstream os(trace_path, std::ios::app);
    if (os) tracer()->write_jsonl(os, run);
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path, std::ios::app);
    if (os) metrics()->write_jsonl(os, run);
  }
}

void TcpTransport::stop() {
  if (!running_.exchange(false)) return;
  // Admin servers first: their handlers lock broker state.
  for (BrokerId b = 1; b < nodes_.size(); ++b) {
    if (nodes_[b]->admin) nodes_[b]->admin->stop();
  }
  timer_cv_.notify_all();
  for (BrokerId b = 1; b < nodes_.size(); ++b) {
    Node& node = *nodes_[b];
    if (node.listen_fd >= 0) {
      ::shutdown(node.listen_fd, SHUT_RDWR);
      ::close(node.listen_fd);
      node.listen_fd = -1;
    }
    {
      std::lock_guard lock(node.peers_mu);
      for (auto& [peer, fd] : node.peer_fd) {
        ::shutdown(fd, SHUT_RDWR);
      }
    }
    std::lock_guard lock(node.clients_mu);
    for (auto& [client, fd] : node.client_fd) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (BrokerId b = 1; b < nodes_.size(); ++b) {
    Node& node = *nodes_[b];
    if (node.accept_thread.joinable()) node.accept_thread.join();
    for (auto& t : node.readers) {
      if (t.joinable()) t.join();
    }
    for (auto& t : node.client_readers) {
      if (t.joinable()) t.join();
    }
    std::lock_guard lock(node.peers_mu);
    for (auto& [peer, fd] : node.peer_fd) ::close(fd);
    node.peer_fd.clear();
    // Client fds are closed by their reader loops on exit.
    node.client_fd.clear();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
}

}  // namespace tmps
