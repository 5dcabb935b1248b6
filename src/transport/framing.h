// Blocking stream I/O shared by the TCP host, its admin endpoint and the
// TCP session client: exact-length socket reads/writes, and the one frame
// format messages travel in:
//
//   [u32 length][u32 sender][message bytes]   (little-endian)
//
// `length` counts the sender field and the message bytes; `message bytes` is
// encode_message(). The sender is a broker id, or 0 for an edge client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "pubsub/messages.h"

namespace tmps {

/// Frames longer than this are a protocol violation.
inline constexpr std::uint32_t kMaxFrame = 16u << 20;

/// Sends exactly `n` bytes, retrying on EINTR. False on any socket error.
bool write_full(int fd, const void* data, std::size_t n);
/// Receives exactly `n` bytes, retrying on EINTR. False on error or EOF.
bool read_full(int fd, void* data, std::size_t n);

/// Appends the frame carrying `msg` from `sender` to `out`.
void append_frame(std::string& out, std::uint32_t sender, const Message& msg);

/// A frame as read off a stream.
struct Frame {
  std::uint32_t sender = 0;
  std::string bytes;  ///< the sender field, then the message bytes

  std::string_view message() const {
    return std::string_view(bytes).substr(4);
  }
};

/// Reads the next frame into `f`, reusing its buffer. False when the stream
/// ends or its length is out of bounds; either way the connection is done.
bool read_frame(int fd, Frame& f);

}  // namespace tmps
