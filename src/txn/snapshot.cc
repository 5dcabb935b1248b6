#include "txn/snapshot.h"

#include "pubsub/codec.h"

namespace tmps {
namespace {

constexpr std::uint32_t kMagic = 0x74535031;  // "tSP1"
constexpr std::uint32_t kMaxEntries = 1u << 22;

void encode_hop(Writer& w, const Hop& h) {
  w.u8(static_cast<std::uint8_t>(h.kind));
  w.u32(h.broker);
  w.u64(h.client);
}

bool decode_hop(Reader& r, Hop& h) {
  std::uint8_t kind;
  if (!r.u8(kind) || !r.u32(h.broker) || !r.u64(h.client)) return false;
  if (kind > static_cast<std::uint8_t>(Hop::Kind::Client)) return false;
  h.kind = static_cast<Hop::Kind>(kind);
  return true;
}

template <typename Entry>
void encode_entry_common(Writer& w, const Entry& e) {
  encode_hop(w, e.lasthop);
  w.u32(static_cast<std::uint32_t>(e.forwarded_to.size()));
  for (const Hop& h : e.forwarded_to) encode_hop(w, h);
  w.u8(e.shadow_lasthop ? 1 : 0);
  if (e.shadow_lasthop) {
    encode_hop(w, *e.shadow_lasthop);
    w.u64(e.shadow_txn);
  }
  w.u8(e.shadow_only ? 1 : 0);
}

template <typename Entry>
bool decode_entry_common(Reader& r, Entry& e) {
  if (!decode_hop(r, e.lasthop)) return false;
  std::uint32_t marks;
  if (!r.u32(marks) || marks > kMaxEntries) return false;
  for (std::uint32_t i = 0; i < marks; ++i) {
    Hop h;
    if (!decode_hop(r, h)) return false;
    e.forwarded_to.insert(h);
  }
  std::uint8_t has_shadow, shadow_only;
  if (!r.u8(has_shadow)) return false;
  if (has_shadow) {
    Hop h;
    std::uint64_t txn;
    if (!decode_hop(r, h) || !r.u64(txn)) return false;
    e.shadow_lasthop = h;
    e.shadow_txn = txn;
  }
  if (!r.u8(shadow_only)) return false;
  e.shadow_only = shadow_only != 0;
  return true;
}

template <typename Table>
void encode_table(Writer& w, const Table& table) {
  w.u32(static_cast<std::uint32_t>(table.size()));
  for (const auto& [id, e] : table) {
    encode(w, e.item);
    encode_entry_common(w, e);
  }
}

template <typename Table>
bool decode_table(Reader& r, Table& table) {
  std::uint32_t n;
  if (!r.u32(n) || n > kMaxEntries) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    typename Table::Entry scratch;
    if (!decode(r, scratch.item) || !decode_entry_common(r, scratch)) {
      return false;
    }
    auto& e = table.upsert(scratch.item, scratch.lasthop);
    e.forwarded_to = std::move(scratch.forwarded_to);
    e.shadow_lasthop = scratch.shadow_lasthop;
    e.shadow_txn = scratch.shadow_txn;
    e.shadow_only = scratch.shadow_only;
  }
  return true;
}

}  // namespace

std::string snapshot_tables(const RoutingTables& tables) {
  Writer w;
  w.u32(kMagic);
  encode_table(w, tables.prt());
  encode_table(w, tables.srt());
  return w.take();
}

bool restore_tables(std::string_view bytes, RoutingTables& tables) {
  tables = RoutingTables{};
  Reader r(bytes);
  std::uint32_t magic;
  if (!r.u32(magic) || magic != kMagic || !decode_table(r, tables.prt()) ||
      !decode_table(r, tables.srt()) || !r.at_end()) {
    tables = RoutingTables{};
    return false;
  }
  return true;
}

}  // namespace tmps
