#include "pubsub/codec.h"

#include <array>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>

namespace tmps {

namespace {

// Sanity bounds: decoding never allocates absurd amounts for hostile input.
constexpr std::uint32_t kMaxString = 1 << 20;
constexpr std::uint32_t kMaxList = 1 << 16;

}  // namespace

// --- Writer / Reader -----------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

bool Reader::take(void* out, std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool Reader::u8(std::uint8_t& v) { return take(&v, 1); }

bool Reader::u32(std::uint32_t& v) {
  unsigned char b[4];
  if (!take(b, 4)) return false;
  v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return true;
}

bool Reader::u64(std::uint64_t& v) {
  unsigned char b[8];
  if (!take(b, 8)) return false;
  v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return true;
}

bool Reader::i64(std::int64_t& v) {
  std::uint64_t u;
  if (!u64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}

bool Reader::f64(double& v) {
  std::uint64_t bits;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool Reader::str(std::string& s) {
  std::uint32_t len;
  if (!u32(len)) return false;
  if (len > kMaxString || data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  s.assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

// --- building blocks -------------------------------------------------------------

void encode(Writer& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Int:
      w.u8(0);
      w.i64(v.as_int());
      break;
    case Value::Kind::Real:
      w.u8(1);
      w.f64(v.as_real());
      break;
    case Value::Kind::String:
      w.u8(2);
      w.str(v.as_string());
      break;
  }
}

bool decode(Reader& r, Value& v) {
  std::uint8_t kind;
  if (!r.u8(kind)) return false;
  switch (kind) {
    case 0: {
      std::int64_t x;
      if (!r.i64(x)) return false;
      v = Value{x};
      return true;
    }
    case 1: {
      double x;
      if (!r.f64(x)) return false;
      v = Value{x};
      return true;
    }
    case 2: {
      std::string s;
      if (!r.str(s)) return false;
      v = Value{std::move(s)};
      return true;
    }
    default:
      return false;
  }
}

void encode(Writer& w, const Predicate& p) {
  w.str(p.attr);
  w.u8(static_cast<std::uint8_t>(p.op));
  encode(w, p.value);
}

bool decode(Reader& r, Predicate& p) {
  std::uint8_t op;
  if (!r.str(p.attr) || !r.u8(op)) return false;
  if (op > static_cast<std::uint8_t>(Op::kPrefix)) return false;
  p.op = static_cast<Op>(op);
  return decode(r, p.value);
}

void encode(Writer& w, const Filter& f) {
  w.u32(static_cast<std::uint32_t>(f.predicates().size()));
  for (const auto& p : f.predicates()) encode(w, p);
}

bool decode(Reader& r, Filter& f) {
  std::uint32_t n;
  if (!r.u32(n) || n > kMaxList) return false;
  f = Filter{};
  for (std::uint32_t i = 0; i < n; ++i) {
    Predicate p;
    if (!decode(r, p)) return false;
    f.add(p);
  }
  return true;
}

void encode(Writer& w, const EntityId& id) {
  w.u64(id.client);
  w.u32(id.seq);
}

bool decode(Reader& r, EntityId& id) {
  return r.u64(id.client) && r.u32(id.seq);
}

void encode(Writer& w, const Publication& p) {
  encode(w, p.id());
  w.u32(static_cast<std::uint32_t>(p.attrs().size()));
  for (const auto& [k, v] : p.attrs()) {
    w.str(k);
    encode(w, v);
  }
}

bool decode(Reader& r, Publication& p) {
  PublicationId id;
  std::uint32_t n;
  if (!decode(r, id) || !r.u32(n) || n > kMaxList) return false;
  p = Publication{};
  p.set_id(id);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k;
    Value v;
    if (!r.str(k) || !decode(r, v)) return false;
    p.set(std::move(k), std::move(v));
  }
  return true;
}

void encode(Writer& w, const Subscription& s) {
  encode(w, s.id);
  encode(w, s.filter);
}

bool decode(Reader& r, Subscription& s) {
  return decode(r, s.id) && decode(r, s.filter);
}

void encode(Writer& w, const Advertisement& a) {
  encode(w, a.id);
  encode(w, a.filter);
}

bool decode(Reader& r, Advertisement& a) {
  return decode(r, a.id) && decode(r, a.filter);
}

// --- payload fields ---------------------------------------------------------
//
// put/get write and read one field of a payload struct; put_fields and
// get_fields walk the struct's fields() list (pubsub/messages.h) in order.

namespace {

void put(Writer& w, std::uint32_t v) { w.u32(v); }
void put(Writer& w, std::uint64_t v) { w.u64(v); }
void put(Writer& w, bool v) { w.u8(v ? 1 : 0); }
void put(Writer& w, const std::string& s) { w.str(s); }
void put(Writer& w, const EntityId& id) { encode(w, id); }
void put(Writer& w, const Publication& p) { encode(w, p); }
void put(Writer& w, const Subscription& s) { encode(w, s); }
void put(Writer& w, const Advertisement& a) { encode(w, a); }

template <class E>
  requires std::is_enum_v<E>
void put(Writer& w, E v) {
  w.u8(static_cast<std::uint8_t>(v));
}

template <class T>
void put(Writer& w, const std::vector<T>& xs) {
  w.u32(static_cast<std::uint32_t>(xs.size()));
  for (const T& x : xs) put(w, x);
}

template <class T>
void put(Writer& w, const std::optional<T>& x) {
  put(w, x.has_value());
  if (x) put(w, *x);
}

bool get(Reader& r, std::uint32_t& v) { return r.u32(v); }
bool get(Reader& r, std::uint64_t& v) { return r.u64(v); }
bool get(Reader& r, std::string& s) { return r.str(s); }
bool get(Reader& r, EntityId& id) { return decode(r, id); }
bool get(Reader& r, Publication& p) { return decode(r, p); }
bool get(Reader& r, Subscription& s) { return decode(r, s); }
bool get(Reader& r, Advertisement& a) { return decode(r, a); }

bool get(Reader& r, bool& v) {
  std::uint8_t b;
  if (!r.u8(b) || b > 1) return false;
  v = b != 0;
  return true;
}

/// An enum byte must name one of the values up to `last`.
template <class E>
bool get_enum(Reader& r, E& v, E last) {
  std::uint8_t b;
  if (!r.u8(b) || b > static_cast<std::uint8_t>(last)) return false;
  v = static_cast<E>(b);
  return true;
}

bool get(Reader& r, RepairVerdict& v) {
  return get_enum(r, v, RepairVerdict::Aborted);
}

bool get(Reader& r, SessionVerdict& v) {
  return get_enum(r, v, SessionVerdict::Unknown);
}

template <class T>
bool get(Reader& r, std::vector<T>& xs) {
  std::uint32_t n;
  if (!r.u32(n) || n > kMaxList) return false;
  xs.clear();
  xs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    T x;
    if (!get(r, x)) return false;
    xs.push_back(std::move(x));
  }
  return true;
}

template <class T>
bool get(Reader& r, std::optional<T>& x) {
  bool present;
  if (!get(r, present)) return false;
  x.reset();
  return !present || get(r, x.emplace());
}

template <class M>
void put_fields(Writer& w, const M& m) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, M::fields(m));
}

template <class M>
bool get_fields(Reader& r, M& m) {
  return std::apply([&r](auto&... f) { return (get(r, f) && ...); },
                    M::fields(m));
}

/// Decodes the fields of payload alternative I into `p`.
template <std::size_t I>
bool get_alternative(Reader& r, Payload& p) {
  return get_fields(r, p.emplace<I>());
}

template <std::size_t... I>
constexpr auto alternative_getters(std::index_sequence<I...>) {
  return std::array{&get_alternative<I>...};
}

// The wire tag is the variant index + 1 (0 is never a valid tag).
constexpr auto kGetters = alternative_getters(
    std::make_index_sequence<std::variant_size_v<Payload>>());
static_assert(kGetters.size() < 256, "payload tags are one byte");

bool get_payload(Reader& r, Payload& p) {
  std::uint8_t tag;
  if (!r.u8(tag) || tag == 0 || tag > kGetters.size()) return false;
  return kGetters[tag - 1](r, p);
}

}  // namespace

std::string encode_message(const Message& m) {
  Writer w;
  w.u64(m.id);
  w.u64(m.cause);
  // One flag byte: bit 0 = unicast_dest present, bit 1 = provenance present.
  std::uint8_t flags = 0;
  if (m.unicast_dest) flags |= 1;
  if (m.prov) flags |= 2;
  w.u8(flags);
  if (m.unicast_dest) w.u32(*m.unicast_dest);
  if (m.prov) {
    w.u64(m.prov->trace);
    w.f64(m.prov->origin_time);
    w.f64(m.prov->last_hop_time);
    w.u8(m.prov->hops);
    w.u8(m.prov->sampled ? 1 : 0);
  }
  w.u8(static_cast<std::uint8_t>(m.payload.index() + 1));
  std::visit([&w](const auto& p) { put_fields(w, p); }, m.payload);
  return w.take();
}

std::optional<Message> decode_message(std::string_view bytes) {
  Reader r(bytes);
  Message m;
  std::uint8_t flags;
  if (!r.u64(m.id) || !r.u64(m.cause) || !r.u8(flags)) return std::nullopt;
  if (flags & ~std::uint8_t{3}) return std::nullopt;  // unknown flag bits
  if (flags & 1) {
    BrokerId dest;
    if (!r.u32(dest)) return std::nullopt;
    m.unicast_dest = dest;
  }
  if (flags & 2) {
    obs::ProvenanceTag tag;
    std::uint8_t hops, sampled;
    if (!r.u64(tag.trace) || !r.f64(tag.origin_time) ||
        !r.f64(tag.last_hop_time) || !r.u8(hops) || !r.u8(sampled)) {
      return std::nullopt;
    }
    tag.hops = hops;
    tag.sampled = sampled != 0;
    m.prov = tag;
  }
  if (!get_payload(r, m.payload)) return std::nullopt;
  if (!r.at_end()) return std::nullopt;  // trailing garbage
  return m;
}

}  // namespace tmps
