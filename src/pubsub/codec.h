// Binary wire codec for every message brokers and edge clients exchange.
//
// The discrete-event simulator passes C++ objects around, but durable queues
// (Sec. 3.5's fault masking) and the TCP transport need bytes. The format is
// a simple little-endian encoding: the envelope, then the payload's tag (its
// Payload variant index + 1) and its fields() in order (pubsub/messages.h).
// Decoding is total — malformed input yields std::nullopt, never undefined
// behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "pubsub/messages.h"

namespace tmps {

/// Append-only byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked byte source. Every read reports success; once a read
/// fails, all subsequent reads fail (sticky error).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  bool u8(std::uint8_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool str(std::string& s);

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(void* out, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- building blocks ---------------------------------------------------------

void encode(Writer& w, const Value& v);
bool decode(Reader& r, Value& v);

void encode(Writer& w, const Predicate& p);
bool decode(Reader& r, Predicate& p);

void encode(Writer& w, const Filter& f);
bool decode(Reader& r, Filter& f);

void encode(Writer& w, const EntityId& id);
bool decode(Reader& r, EntityId& id);

void encode(Writer& w, const Publication& p);
bool decode(Reader& r, Publication& p);

void encode(Writer& w, const Subscription& s);
bool decode(Reader& r, Subscription& s);

void encode(Writer& w, const Advertisement& a);
bool decode(Reader& r, Advertisement& a);

// --- whole messages -----------------------------------------------------------

/// Serializes a message (envelope + payload) to bytes.
std::string encode_message(const Message& m);

/// Parses bytes back into a message. Returns nullopt on malformed or
/// truncated input, including trailing garbage.
std::optional<Message> decode_message(std::string_view bytes);

}  // namespace tmps
