#include "obs/flight_recorder.h"

#include <cstring>

#include "obs/jsonl.h"

namespace tmps::obs {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double double_of(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(round_up_pow2(capacity)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::record(std::string_view kind, double time,
                            std::uint32_t from, std::uint64_t cause,
                            std::uint64_t detail) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & (capacity_ - 1)];
  // Invalidate, fill, publish: a reader either sees the old generation's
  // ticket twice (consistent old event), the new ticket twice (consistent
  // new event), or a mismatch / 0 and skips the slot.
  s.seq.store(0, std::memory_order_release);
  s.time_bits.store(bits_of(time), std::memory_order_relaxed);
  s.kind.store(kind.data(), std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint32_t>(kind.size()) |
                   (static_cast<std::uint64_t>(from) << 32),
               std::memory_order_relaxed);
  s.cause.store(cause, std::memory_order_relaxed);
  s.detail.store(detail, std::memory_order_relaxed);
  s.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < capacity_ ? head : capacity_;
  std::vector<Event> out;
  out.reserve(n);
  // Oldest slot first: tickets head-n .. head-1.
  for (std::uint64_t t = head - n; t != head; ++t) {
    const Slot& s = slots_[t & (capacity_ - 1)];
    const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
    if (seq1 == 0) continue;  // being written right now
    Event e;
    e.time = double_of(s.time_bits.load(std::memory_order_relaxed));
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    e.kind = std::string_view(s.kind.load(std::memory_order_relaxed),
                              static_cast<std::uint32_t>(meta));
    e.from = static_cast<std::uint32_t>(meta >> 32);
    e.cause = s.cause.load(std::memory_order_relaxed);
    e.detail = s.detail.load(std::memory_order_relaxed);
    const std::uint64_t seq2 = s.seq.load(std::memory_order_acquire);
    if (seq1 != seq2) continue;  // overwritten mid-copy
    out.push_back(e);
  }
  return out;
}

void FlightRecorder::write_jsonl(std::ostream& os, std::uint32_t broker,
                                 std::string_view reason) const {
  const std::vector<Event> events = snapshot();
  std::string line = "{\"flight\":true,\"broker\":";
  append_json_number(line, static_cast<std::uint64_t>(broker));
  line += ",\"reason\":";
  append_json_string(line, reason);
  line += ",\"events\":";
  append_json_number(line, static_cast<std::uint64_t>(events.size()));
  line += ",\"recorded\":";
  append_json_number(line, recorded());
  line += "}\n";
  os << line;
  for (const Event& e : events) {
    line.clear();
    line += "{\"broker\":";
    append_json_number(line, static_cast<std::uint64_t>(broker));
    line += ",\"t\":";
    append_json_number(line, e.time);
    line += ",\"kind\":";
    append_json_string(line, e.kind);
    line += ",\"from\":";
    append_json_number(line, static_cast<std::uint64_t>(e.from));
    line += ",\"cause\":";
    append_json_number(line, e.cause);
    line += ",\"detail\":";
    append_json_number(line, e.detail);
    line += "}\n";
    os << line;
  }
}

}  // namespace tmps::obs
