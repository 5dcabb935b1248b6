// Per-broker flight recorder: a fixed-size lock-free ring holding the last N
// protocol and data events, recorded unconditionally (independent of trace
// sampling) and dumped only when something goes wrong — movement abort,
// audit violation — or on demand via GET /flight.
//
// This is the post-mortem context the movement-invariant auditor lacks: the
// auditor can say *that* an invariant broke; the flight recorder says what
// the broker was doing in the moments before.
//
// Concurrency: writers claim a slot with one fetch_add and publish it with a
// per-slot sequence word (release store); readers validate the sequence
// before and after copying and drop slots that were overwritten mid-read.
// Every field is a relaxed atomic, so concurrent dump-while-recording is
// data-race-free under TSan without any lock on the record path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tmps::obs {

class FlightRecorder {
 public:
  struct Event {
    double time = 0;
    /// What happened: a Message::type_name() (detail = message id),
    /// "deliver" (a local delivery) or "client-op" (a local client
    /// operation; for both, detail = client id).
    std::string_view kind;
    std::uint32_t from = 0;  ///< peer broker the message arrived from; 0 local
    std::uint64_t cause = 0;
    std::uint64_t detail = 0;
  };

  /// `capacity` is rounded up to a power of two (cheap wrap); minimum 8.
  explicit FlightRecorder(std::size_t capacity = 256);

  /// `kind` must have static storage (a string literal or a
  /// Message::type_name()): the ring keeps the pointer, not a copy.
  void record(std::string_view kind, double time, std::uint32_t from,
              std::uint64_t cause, std::uint64_t detail);

  /// Consistent-slot copy of the buffered events, oldest first. Slots being
  /// overwritten during the copy are skipped.
  std::vector<Event> snapshot() const;

  /// One JSON object per event plus a header line naming the broker and the
  /// dump reason (NDJSON, matching the other obs sinks).
  void write_jsonl(std::ostream& os, std::uint32_t broker,
                   std::string_view reason) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// 0 = never written; otherwise 1 + the claim ticket of the writer.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> time_bits{0};
    std::atomic<const char*> kind{nullptr};
    std::atomic<std::uint64_t> meta{0};  ///< kind length | from<<32
    std::atomic<std::uint64_t> cause{0};
    std::atomic<std::uint64_t> detail{0};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace tmps::obs
