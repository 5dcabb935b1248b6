#include "session/tcp_session_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "pubsub/codec.h"
#include "transport/framing.h"
#include "transport/tcp_transport.h"

namespace tmps::session {

TcpSessionClient::TcpSessionClient(ClientId id, Options opt)
    : id_(id),
      opt_(opt),
      // Knuth multiplicative hash of the client id: a stable, well-spread
      // jitter fraction without a randomness source.
      jitter_(static_cast<double>((id * 2654435761u) % 1024u) / 1024.0) {}

TcpSessionClient::~TcpSessionClient() {
  disconnect();
  join_reader();
}

bool TcpSessionClient::connect(std::uint16_t port) {
  disconnect();
  join_reader();
  double delay = opt_.backoff_base;
  for (std::uint32_t attempt = 0; attempt < opt_.max_attempts; ++attempt) {
    attempts_.fetch_add(1);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const std::uint32_t hello = TcpTransport::kClientHello;
        const std::uint64_t id64 = id_;
        if (write_full(fd, &hello, sizeof(hello)) &&
            write_full(fd, &id64, sizeof(id64))) {
          fd_.store(fd);
          reader_ = std::thread([this, fd] { reader_loop(fd); });
          return true;
        }
      }
      ::close(fd);
    }
    // Exponential backoff with the per-client jitter fraction on top.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(delay * (1.0 + jitter_)));
    delay = std::min(delay * 2.0, opt_.backoff_max);
  }
  return false;
}

void TcpSessionClient::disconnect() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void TcpSessionClient::join_reader() {
  if (reader_.joinable()) reader_.join();
}

bool TcpSessionClient::send_frame(const Payload& payload) {
  const int fd = fd_.load();
  if (fd < 0) return false;
  Message msg;
  {
    std::lock_guard lock(mu_);
    msg.id = next_msg_++;
  }
  msg.payload = payload;
  std::string frame;
  append_frame(frame, 0, msg);  // sender 0: clients have no broker id
  return write_full(fd, frame.data(), frame.size());
}

bool TcpSessionClient::open_session(const std::optional<Publication>& will) {
  SessionOpenMsg m;
  m.client = id_;
  m.will = will;
  return send_frame(m);
}

bool TcpSessionClient::resume_session(std::uint64_t token) {
  if (token == 0) return false;
  SessionResumeMsg m;
  m.token = token;
  m.client = id_;
  return send_frame(m);
}

bool TcpSessionClient::heartbeat() {
  SessionHeartbeatMsg m;
  m.token = token();
  m.client = id_;
  return send_frame(m);
}

bool TcpSessionClient::close_session(bool fire_will) {
  SessionCloseMsg m;
  m.token = token();
  m.client = id_;
  m.fire_will = fire_will;
  return send_frame(m);
}

bool TcpSessionClient::publish(const Publication& pub) {
  return send_frame(PublishMsg{pub});
}

bool TcpSessionClient::subscribe(const Subscription& sub) {
  return send_frame(SubscribeMsg{sub});
}

bool TcpSessionClient::advertise(const Advertisement& adv) {
  return send_frame(AdvertiseMsg{adv});
}

std::uint64_t TcpSessionClient::token() const {
  std::lock_guard lock(mu_);
  return token_;
}

std::optional<SessionAckMsg> TcpSessionClient::last_ack() const {
  std::lock_guard lock(mu_);
  return last_ack_;
}

std::size_t TcpSessionClient::acks_seen() const {
  std::lock_guard lock(mu_);
  return acks_;
}

std::size_t TcpSessionClient::wait_for_ack(std::size_t than_acks,
                                           double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lock(mu_);
      if (acks_ > than_acks) return acks_;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard lock(mu_);
  return acks_;
}

std::vector<Publication> TcpSessionClient::deliveries() const {
  std::lock_guard lock(mu_);
  return deliveries_;
}

void TcpSessionClient::reader_loop(int fd) {
  Frame frame;
  while (read_frame(fd, frame)) {
    const std::optional<Message> msg = decode_message(frame.message());
    if (!msg) continue;
    std::lock_guard lock(mu_);
    if (const auto* ack = std::get_if<SessionAckMsg>(&msg->payload)) {
      last_ack_ = *ack;
      ++acks_;
      if (ack->token != 0) token_ = ack->token;
    } else if (const auto* pub = std::get_if<PublishMsg>(&msg->payload)) {
      deliveries_.push_back(pub->pub);
    }
  }
  // Only clear fd_ if nobody replaced the socket already.
  int expected = fd;
  fd_.compare_exchange_strong(expected, -1);
}

}  // namespace tmps::session
