#include "transport/framing.h"

#include <sys/socket.h>

#include <cerrno>

#include "pubsub/codec.h"

namespace tmps {

bool write_full(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_full(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return false;  // EOF or error
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

void append_frame(std::string& out, std::uint32_t sender, const Message& msg) {
  const std::string body = encode_message(msg);
  Writer header;
  header.u32(static_cast<std::uint32_t>(body.size()) + 4);
  header.u32(sender);
  out += header.bytes();
  out += body;
}

bool read_frame(int fd, Frame& f) {
  char prefix[4];
  std::uint32_t len = 0;
  if (!read_full(fd, prefix, 4) ||
      !Reader(std::string_view(prefix, 4)).u32(len) || len < 4 ||
      len > kMaxFrame) {
    return false;
  }
  f.bytes.resize(len);
  return read_full(fd, f.bytes.data(), len) &&
         Reader(f.bytes).u32(f.sender);
}

}  // namespace tmps
