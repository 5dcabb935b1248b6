#include "transport/http_admin.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "transport/framing.h"

namespace tmps {

namespace {

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

}  // namespace

HttpAdminServer::~HttpAdminServer() { stop(); }

void HttpAdminServer::add_route(std::string path, Handler handler) {
  routes_[std::move(path)] = std::move(handler);
}

bool HttpAdminServer::start(std::uint16_t port) {
  if (running_.exchange(true)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpAdminServer::stop() {
  if (!running_.exchange(false)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (thread_.joinable()) thread_.join();
}

void HttpAdminServer::serve_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    serve_one(fd);
    ::close(fd);
  }
}

void HttpAdminServer::serve_one(int fd) {
  // A stalled client must not wedge the admin plane.
  timeval tv{/*tv_sec=*/2, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Read until the end of the request head (no request bodies on GET).
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
    const ssize_t k = ::recv(fd, buf, sizeof(buf), 0);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      if (req.find("\r\n") == std::string::npos) return;  // no request line
      break;
    }
    req.append(buf, static_cast<std::size_t>(k));
  }

  HttpResponse resp;
  const auto line_end = req.find("\r\n");
  const std::string line = req.substr(0, line_end);
  const auto sp1 = line.find(' ');
  const auto sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp = HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (line.substr(0, sp1) != "GET") {
    resp = HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET is supported\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const auto query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    auto it = routes_.find(path);
    if (it == routes_.end()) {
      resp = HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
    } else {
      resp = it->second();
    }
  }

  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     reason_phrase(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (write_full(fd, head.data(), head.size())) {
    write_full(fd, resp.body.data(), resp.body.size());
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace tmps
