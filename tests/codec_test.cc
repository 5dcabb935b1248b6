#include "pubsub/codec.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <random>

#include "obs/provenance.h"
#include "pubsub/workload.h"
#include "session/tcp_session_client.h"

namespace tmps {
namespace {

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// --- One sample of every payload ---------------------------------------------
//
// Samples 0..24 hold the Payload alternatives in variant order; 25 and 26 are
// the two session frames that can carry a last will, without it. Fields of
// one type hold distinct values, so a field list that swaps two of them
// changes the bytes.

Publication sample_pub() {
  return Publication({3, 3}, {{"class", "S"}, {"p", 1.5}, {"x", -7}});
}

// Registers the sample publication as a session frame's last will.
template <class M>
void set_will(M& m) {
  m.will = sample_pub();
}

SessionOpenMsg sample_open(bool with_will) {
  SessionOpenMsg m;
  m.client = 9;
  m.at = 2;
  if (with_will) set_will(m);
  return m;
}

SessionAckMsg sample_ack(bool with_will) {
  SessionAckMsg m;
  m.token = 0x0200000000000007ull;
  m.client = 9;
  m.verdict = SessionVerdict::Moving;
  m.txn = 11;
  m.home = 2;
  if (with_will) set_will(m);
  return m;
}

std::vector<Payload> sample_payloads() {
  const Subscription sub{{3, 1}, Filter{eq("class", "S"), ge("x", 5)}};
  const Advertisement adv{{3, 2}, Filter{present("x"), prefix("sym", "AC")}};
  const Publication pub = sample_pub();
  const std::uint64_t tok = 0x0200000000000007ull;
  return {
      AdvertiseMsg{adv},
      UnadvertiseMsg{adv.id},
      SubscribeMsg{sub},
      UnsubscribeMsg{sub.id},
      PublishMsg{pub},
      MoveNegotiateMsg{11, 3, 1, 5, {sub}, {adv}, 9},
      MoveApproveMsg{11, 3, 1, 5, {sub}, {adv}},
      MoveRejectMsg{11, 3, "full"},
      MoveStateMsg{11, 3, 1, 5, {pub}, {}, {sub.id}, {adv.id}},
      MoveAckMsg{11, 3},
      MoveAbortMsg{11, 3, 1, 5, {sub.id}, {adv.id}},
      BufferedStateMsg{11, 3, {pub}, {}},
      TradMoveRequestMsg{11, 3, 1, 5, {sub}, {adv}, 9},
      TradReadyMsg{11, 3},
      TradRejectMsg{11, 3, "nope"},
      RepairDigestMsg{4, 2, {sub.id}, {adv.id}, {{3, 7}}, {}},
      RepairRequestMsg{4, 2, {sub.id}, {adv.id}},
      RepairProbeMsg{11, 2},
      RepairVerdictMsg{11, RepairVerdict::Committed, 1, 5, 3},
      sample_open(true),
      SessionResumeMsg{tok, 9, 3},
      sample_ack(true),
      SessionHeartbeatMsg{tok, 9},
      SessionCloseMsg{tok, 9, true},
      SessionForwardMsg{tok, 9, 2, {pub}},
      sample_open(false),
      sample_ack(false),
  };
}

// The bare envelope: id 1, no cause, no destination, no provenance.
Message bare(Payload p) {
  Message m;
  m.id = 1;
  m.payload = std::move(p);
  return m;
}

// Every envelope field set: cause, unicast destination and provenance.
Message full(Payload p) {
  Message m;
  m.id = 0x0102030405060708ull;
  m.cause = 0x1112131415161718ull;
  m.unicast_dest = 5;
  obs::ProvenanceTag tag;
  tag.trace = 0x2122232425262728ull;
  tag.origin_time = 1.5;
  tag.last_hop_time = 1.75;
  tag.hops = 3;
  tag.sampled = true;
  m.prov = tag;
  m.payload = std::move(p);
  return m;
}

// Every sample payload, in the bare envelope and in the full one.
std::vector<Message> sample_messages() {
  std::vector<Message> out;
  for (const Payload& p : sample_payloads()) {
    out.push_back(bare(p));
    out.push_back(full(p));
  }
  return out;
}

// --- The wire format, pinned -------------------------------------------------
//
// The exact bytes of each sample, as hex. Changing any of them is a wire
// format change: brokers built before and after it no longer understand
// each other.

constexpr std::string_view kBareEnvelope =
    "0100000000000000" "0000000000000000" "00";
constexpr std::string_view kFullEnvelope =
    "0807060504030201" "1817161514131211" "03" "05000000"
    "2827262524232221" "000000000000f83f" "000000000000fc3f" "03" "01";

struct Golden {
  std::string_view name;  ///< Message::type_name()
  std::string_view body;  ///< payload tag + fields
};

constexpr Golden kGolden[] = {
    {"adv",
     "0103000000000000000200000002000000010000007806000000000000000000"
     "0300000073796d0702020000004143"},
    {"unadv", "02030000000000000002000000"},
    {"sub",
     "030300000000000000010000000200000005000000636c617373000201000000"
     "53010000007805000500000000000000"},
    {"unsub", "04030000000000000001000000"},
    {"pub",
     "050300000000000000030000000300000005000000636c617373020100000053"
     "010000007001000000000000f83f010000007800f9ffffffffffffff"},
    {"move-negotiate",
     "060b000000000000000300000000000000010000000500000001000000030000"
     "0000000000010000000200000005000000636c61737300020100000053010000"
     "0078050005000000000000000100000003000000000000000200000002000000"
     "0100000078060000000000000000000300000073796d07020200000041430900"
     "0000"},
    {"move-approve",
     "070b000000000000000300000000000000010000000500000001000000030000"
     "0000000000010000000200000005000000636c61737300020100000053010000"
     "0078050005000000000000000100000003000000000000000200000002000000"
     "0100000078060000000000000000000300000073796d0702020000004143"},
    {"move-reject", "080b0000000000000003000000000000000400000066756c6c"},
    {"move-state",
     "090b000000000000000300000000000000010000000500000001000000030000"
     "0000000000030000000300000005000000636c61737302010000005301000000"
     "7001000000000000f83f010000007800f9ffffffffffffff0000000001000000"
     "03000000000000000100000001000000030000000000000002000000"},
    {"move-ack", "0a0b000000000000000300000000000000"},
    {"move-abort",
     "0b0b000000000000000300000000000000010000000500000001000000030000"
     "00000000000100000001000000030000000000000002000000"},
    {"buffered-state",
     "0c0b000000000000000300000000000000010000000300000000000000030000"
     "000300000005000000636c617373020100000053010000007001000000000000"
     "f83f010000007800f9ffffffffffffff00000000"},
    {"trad-move-request",
     "0d0b000000000000000300000000000000010000000500000001000000030000"
     "0000000000010000000200000005000000636c61737300020100000053010000"
     "0078050005000000000000000100000003000000000000000200000002000000"
     "0100000078060000000000000000000300000073796d07020200000041430900"
     "0000"},
    {"trad-ready", "0e0b000000000000000300000000000000"},
    {"trad-reject", "0f0b000000000000000300000000000000040000006e6f7065"},
    {"repair-digest",
     "1004000000000000000200000001000000030000000000000001000000010000"
     "0003000000000000000200000001000000030000000000000007000000000000"
     "00"},
    {"repair-request",
     "1104000000000000000200000001000000030000000000000001000000010000"
     "00030000000000000002000000"},
    {"repair-probe", "120b0000000000000002000000"},
    {"repair-verdict", "130b000000000000000101000000050000000300000000000000"},
    {"session-open",
     "1409000000000000000200000001030000000000000003000000030000000500"
     "0000636c617373020100000053010000007001000000000000f83f0100000078"
     "00f9ffffffffffffff"},
    {"session-resume", "150700000000000002090000000000000003000000"},
    {"session-ack",
     "1607000000000000020900000000000000010b00000000000000020000000103"
     "00000000000000030000000300000005000000636c6173730201000000530100"
     "00007001000000000000f83f010000007800f9ffffffffffffff"},
    {"session-heartbeat", "1707000000000000020900000000000000"},
    {"session-close", "180700000000000002090000000000000001"},
    {"session-forward",
     "1907000000000000020900000000000000020000000100000003000000000000"
     "00030000000300000005000000636c6173730201000000530100000070010000"
     "00000000f83f010000007800f9ffffffffffffff"},
    {"session-open", "1409000000000000000200000000"},
    {"session-ack",
     "1607000000000000020900000000000000010b000000000000000200000000"},
};

Message round_trip(Message m) {
  const std::string bytes = encode_message(m);
  auto back = decode_message(bytes);
  EXPECT_TRUE(back.has_value());
  return back.value_or(Message{});
}

TEST(Codec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.str("");

  Reader r(w.bytes());
  std::uint8_t a;
  std::uint32_t b;
  std::uint64_t c;
  std::int64_t d;
  double e;
  std::string s1, s2;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u32(b));
  ASSERT_TRUE(r.u64(c));
  ASSERT_TRUE(r.i64(d));
  ASSERT_TRUE(r.f64(e));
  ASSERT_TRUE(r.str(s1));
  ASSERT_TRUE(r.str(s2));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -42);
  EXPECT_DOUBLE_EQ(e, 3.14159);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
}

TEST(Codec, ReaderStopsAtTruncation) {
  Writer w;
  w.u64(7);
  Reader r(std::string_view(w.bytes()).substr(0, 5));
  std::uint64_t v;
  EXPECT_FALSE(r.u64(v));
  EXPECT_FALSE(r.ok());
  std::uint8_t b;
  EXPECT_FALSE(r.u8(b)) << "errors must be sticky";
}

TEST(Codec, ValueRoundTrip) {
  for (const Value& v :
       {Value{std::int64_t{-123456789}}, Value{2.71828}, Value{"str"},
        Value{""}, Value{std::int64_t{0}}}) {
    Writer w;
    encode(w, v);
    Reader r(w.bytes());
    Value back;
    ASSERT_TRUE(decode(r, back));
    EXPECT_EQ(back.kind(), v.kind());
    EXPECT_TRUE(back.equals(v) || (v.is_string() && back.is_string() &&
                                   back.as_string() == v.as_string()));
  }
}

TEST(Codec, FilterRoundTripPreservesSemantics) {
  const Filter f = workload_filter(WorkloadKind::Tree, 4, 17);
  Writer w;
  encode(w, f);
  Reader r(w.bytes());
  Filter back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_TRUE(f == back);
  EXPECT_TRUE(f.covers(back) && back.covers(f));
  const Publication p = make_publication({1, 1}, 7000, 17);
  EXPECT_EQ(f.matches(p), back.matches(p));
}

TEST(Codec, PublicationRoundTrip) {
  Publication p({42, 7}, {{"class", "STOCK"},
                          {"x", std::int64_t{123}},
                          {"price", 9.5},
                          {"sym", "ACME"}});
  Writer w;
  encode(w, p);
  Reader r(w.bytes());
  Publication back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_TRUE(p == back);
}

TEST(Codec, RoutingMessagesRoundTrip) {
  Message m;
  m.id = 77;
  m.cause = 5;
  m.payload = SubscribeMsg{{{9, 2}, workload_filter(WorkloadKind::Covered, 1)}};
  const Message back = round_trip(m);
  EXPECT_EQ(back.id, 77u);
  EXPECT_EQ(back.cause, 5u);
  const auto* sub = std::get_if<SubscribeMsg>(&back.payload);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->sub.id, (SubscriptionId{9, 2}));
}

TEST(Codec, GoldenBytesOfEveryAlternative) {
  const std::vector<Payload> samples = sample_payloads();
  ASSERT_EQ(samples.size(), std::size(kGolden));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i < std::variant_size_v<Payload>) {
      EXPECT_EQ(samples[i].index(), i) << "samples must follow the variant";
    }
    const Golden& g = kGolden[i];
    const Message b = bare(samples[i]);
    EXPECT_EQ(b.type_name(), g.name) << "sample " << i;
    EXPECT_EQ(hex(encode_message(b)),
              std::string(kBareEnvelope) + std::string(g.body))
        << g.name;
    EXPECT_EQ(hex(encode_message(full(samples[i]))),
              std::string(kFullEnvelope) + std::string(g.body))
        << g.name;
  }
}

// The bytes an edge client puts on its socket: the client hello, then one
// frame ([u32 length][u32 sender][message]) holding a heartbeat.
TEST(Codec, GoldenClientFrame) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len),
      0);

  session::TcpSessionClient client(42);
  ASSERT_TRUE(client.connect(ntohs(addr.sin_port)));
  const int fd = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ASSERT_TRUE(client.heartbeat());

  constexpr std::string_view kExpected =
      "ffffffff" "2a00000000000000"  // hello: kClientHello, client 42
      "26000000" "00000000"          // frame: length 38, sender 0 (a client)
      "0100000000000000" "0000000000000000" "00"  // message id 1, bare
      "17" "0000000000000000" "2a00000000000000";  // heartbeat: token, client
  std::string got(kExpected.size() / 2, '\0');
  std::size_t have = 0;
  while (have < got.size()) {
    const ssize_t k = ::recv(fd, got.data() + have, got.size() - have, 0);
    if (k <= 0) break;
    have += static_cast<std::size_t>(k);
  }
  EXPECT_EQ(hex(std::string_view(got).substr(0, have)), kExpected);
  client.disconnect();
  ::close(fd);
  ::close(listener);
}

TEST(Codec, EveryPayloadAlternativeRoundTrips) {
  for (const Message& m : sample_messages()) {
    const std::string bytes = encode_message(m);
    const auto back = decode_message(bytes);
    ASSERT_TRUE(back.has_value()) << m.type_name();
    EXPECT_TRUE(*back == m) << m.type_name();
    EXPECT_EQ(encode_message(*back), bytes) << m.type_name();
  }
}

TEST(Codec, SessionMessagesRoundTripFieldForField) {
  const Publication will = make_publication({0, 0}, 250, 3);
  const std::uint64_t tok = (std::uint64_t{3} << 40) | 17;

  {
    Message m;
    m.id = 2;
    m.payload = SessionOpenMsg{42, 3, will};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionOpenMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->at, 3u);
    ASSERT_TRUE(b->will.has_value());
    EXPECT_TRUE(*b->will == will);
  }
  {
    // Absent will stays absent — no phantom publication on decode.
    Message m;
    m.id = 2;
    m.payload = SessionOpenMsg{42, 3, std::nullopt};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionOpenMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->will.has_value());
  }
  {
    Message m;
    m.id = 3;
    m.unicast_dest = 3;
    m.payload = SessionResumeMsg{tok, 42, 5};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionResumeMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->at, 5u);
  }
  {
    // The Moving ack carries the movement txn and the travelling will.
    Message m;
    m.id = 4;
    m.payload = SessionAckMsg{tok, 42, SessionVerdict::Moving, 77, 3, will};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionAckMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->verdict, SessionVerdict::Moving);
    EXPECT_EQ(b->txn, 77u);
    EXPECT_EQ(b->home, 3u);
    ASSERT_TRUE(b->will.has_value());
    EXPECT_TRUE(*b->will == will);
  }
  {
    Message m;
    m.id = 5;
    m.payload = SessionHeartbeatMsg{tok, 42};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionHeartbeatMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
  }
  {
    Message m;
    m.id = 6;
    m.payload = SessionCloseMsg{tok, 42, true};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionCloseMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_TRUE(b->fire_will);
  }
  {
    const Publication p1 = make_publication({9, 1}, 100, 0);
    const Publication p2 = make_publication({9, 2}, 200, 1);
    Message m;
    m.id = 7;
    m.unicast_dest = 5;
    m.payload = SessionForwardMsg{tok, 42, 3, {p1, p2}};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionForwardMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->origin, 3u);
    ASSERT_EQ(b->pubs.size(), 2u);
    EXPECT_TRUE(b->pubs[0] == p1);
    EXPECT_TRUE(b->pubs[1] == p2);
  }
}

TEST(Codec, TruncatedSessionForwardRejected) {
  Message m;
  m.id = 1;
  m.unicast_dest = 2;
  m.payload = SessionForwardMsg{(std::uint64_t{1} << 40) | 5,
                                42,
                                1,
                                {make_publication({9, 1}, 100, 0),
                                 make_publication({9, 2}, 200, 1)}};
  const std::string bytes = encode_message(m);
  ASSERT_TRUE(decode_message(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
              std::nullopt)
        << "prefix of length " << cut << " must not decode";
  }
}

TEST(Codec, SessionAckBadVerdictRejected) {
  // Hand-rolled frame: header (id, cause, no-dest flag), SessionAck tag,
  // then a verdict byte past the last enumerator. Must reject, not alias.
  Writer w;
  w.u64(1);   // id
  w.u64(0);   // cause
  w.u8(0);    // flags: no dest, no provenance
  w.u8(22);   // SessionAck tag
  w.u64(7);   // token
  w.u64(42);  // client
  w.u8(5);    // verdict: out of range (Unknown == 4)
  w.u64(0);   // txn
  w.u32(1);   // home
  w.u8(0);    // will absent
  EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
}

TEST(Codec, SessionBoolBytesMustBeZeroOrOne) {
  {
    Writer w;  // SessionOpen with a will-present byte of 2
    w.u64(1);
    w.u64(0);
    w.u8(0);
    w.u8(20);  // SessionOpen tag
    w.u64(42);
    w.u32(1);
    w.u8(2);
    EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
  }
  {
    Writer w;  // SessionClose with fire_will = 0xFF
    w.u64(1);
    w.u64(0);
    w.u8(0);
    w.u8(24);  // SessionClose tag
    w.u64(7);
    w.u64(42);
    w.u8(0xFF);
    EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
  }
}

TEST(Codec, ProvenanceTagRoundTrips) {
  Message m;
  m.id = 12;
  m.payload = PublishMsg{make_publication({42, 7}, 100, 0)};
  obs::ProvenanceTag tag;
  tag.trace = obs::pub_trace_id({42, 7});
  tag.origin_time = 1.5;
  tag.last_hop_time = 1.75;
  tag.hops = 3;
  tag.sampled = true;
  m.prov = tag;
  const Message back = round_trip(m);
  ASSERT_TRUE(back.prov.has_value());
  EXPECT_EQ(*back.prov, tag);
  // Absent stays absent — no phantom tag on the decode side.
  m.prov.reset();
  EXPECT_FALSE(round_trip(m).prov.has_value());
}

TEST(Codec, UnknownHeaderFlagBitsRejected) {
  Message m;
  m.id = 1;
  m.payload = PublishMsg{make_publication({1, 1}, 5, 0)};
  std::string bytes = encode_message(m);
  // The flag byte follows the two u64 header fields; setting a bit the
  // decoder doesn't know must reject the frame, not silently misparse.
  bytes[16] = static_cast<char>(bytes[16] | 0x40);
  EXPECT_EQ(decode_message(bytes), std::nullopt);
}

TEST(Codec, TruncatedProvenanceRejected) {
  Message m;
  m.id = 1;
  m.payload = PublishMsg{make_publication({1, 1}, 5, 0)};
  m.prov = obs::make_provenance({1, 1}, 2.0, 1);
  const std::string bytes = encode_message(m);
  ASSERT_TRUE(decode_message(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
              std::nullopt)
        << "prefix of length " << cut << " must not decode";
  }
}

TEST(Codec, TruncatedMessagesRejected) {
  for (const Message& m : sample_messages()) {
    const std::string bytes = encode_message(m);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
                std::nullopt)
          << m.type_name() << ": prefix of length " << cut
          << " must not decode";
    }
  }
}

TEST(Codec, TrailingGarbageRejected) {
  Message m;
  m.id = 1;
  m.payload = MoveAckMsg{2, 3};
  std::string bytes = encode_message(m);
  bytes += 'x';
  EXPECT_EQ(decode_message(bytes), std::nullopt);
}

TEST(Codec, RandomBytesNeverCrash) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 2000; ++round) {
    std::uniform_int_distribution<int> len(0, 200);
    std::string junk(len(rng), '\0');
    for (auto& c : junk) c = static_cast<char>(rng());
    (void)decode_message(junk);  // must not crash or hang
  }
  SUCCEED();
}

TEST(Codec, MutatedValidMessagesNeverCrash) {
  std::mt19937_64 rng(99);
  for (const Message& m : sample_messages()) {
    const std::string bytes = encode_message(m);
    for (int round = 0; round < 300; ++round) {
      std::string mut = bytes;
      mut[rng() % mut.size()] = static_cast<char>(rng());
      const auto back = decode_message(mut);  // decode or reject; never UB
      if (!back) continue;
      // Whatever a mutant decodes to re-encodes to a fixed point.
      const std::string again = encode_message(*back);
      const auto twice = decode_message(again);
      ASSERT_TRUE(twice.has_value()) << m.type_name() << " " << hex(mut);
      EXPECT_EQ(hex(encode_message(*twice)), hex(again)) << m.type_name();
    }
  }
}

TEST(Codec, HostileLengthPrefixRejected) {
  // A string length of 0xFFFFFFFF must not cause a huge allocation.
  Writer w;
  w.u64(1);  // id
  w.u64(0);  // cause
  w.u8(0);   // no dest
  w.u8(8);   // MoveReject tag
  w.u64(1);
  w.u64(2);
  w.u32(0xFFFFFFFFu);  // reason length: hostile
  EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
}

// The bare envelope hand-built frames below start with.
Writer bare_writer() {
  Writer w;
  w.u64(1);  // id
  w.u64(0);  // cause
  w.u8(0);   // flags: no dest, no provenance
  return w;
}

TEST(Codec, TagsOutsideTheVariantRejected) {
  // A MoveAck body (tag 10) behind each tag: only the real tag decodes.
  const auto frame = [](std::uint8_t tag) {
    Writer w = bare_writer();
    w.u8(tag);
    w.u64(11);  // txn
    w.u64(3);   // client
    return w.take();
  };
  EXPECT_NE(decode_message(frame(10)), std::nullopt);
  EXPECT_EQ(decode_message(frame(0)), std::nullopt);
  EXPECT_EQ(decode_message(frame(26)), std::nullopt);
  EXPECT_EQ(decode_message(frame(255)), std::nullopt);
}

TEST(Codec, RepairVerdictOutOfRangeRejected) {
  const auto frame = [](std::uint8_t verdict) {
    Writer w = bare_writer();
    w.u8(19);  // RepairVerdict tag
    w.u64(11);
    w.u8(verdict);
    w.u32(1);
    w.u32(5);
    w.u64(3);
    return w.take();
  };
  EXPECT_NE(decode_message(frame(2)), std::nullopt);  // Aborted
  EXPECT_EQ(decode_message(frame(3)), std::nullopt);
}

TEST(Codec, ValueKindOutOfRangeRejected) {
  const auto frame = [](std::uint8_t kind) {
    Writer w = bare_writer();
    w.u8(5);  // Publish tag
    w.u64(3);  // publication id
    w.u32(3);
    w.u32(1);  // one attribute
    w.str("x");
    w.u8(kind);
    w.i64(7);
    return w.take();
  };
  EXPECT_NE(decode_message(frame(0)), std::nullopt);  // Int
  EXPECT_EQ(decode_message(frame(3)), std::nullopt);
}

TEST(Codec, PredicateOpPastPrefixRejected) {
  const auto frame = [](std::uint8_t op) {
    Writer w = bare_writer();
    w.u8(3);  // Subscribe tag
    w.u64(3);  // subscription id
    w.u32(1);
    w.u32(1);  // one predicate
    w.str("sym");
    w.u8(op);
    w.u8(2);  // string value
    w.str("AC");
    return w.take();
  };
  EXPECT_NE(decode_message(frame(static_cast<std::uint8_t>(Op::kPrefix))),
            std::nullopt);
  EXPECT_EQ(decode_message(frame(static_cast<std::uint8_t>(Op::kPrefix) + 1)),
            std::nullopt);
}

TEST(Codec, ListCountAboveMaxListRejected) {
  // kMaxList is 1 << 16: a list that long decodes, one entry more does not.
  const auto frame = [](std::uint32_t n) {
    Message m = bare(RepairRequestMsg{
        4, 2, std::vector<SubscriptionId>(n, SubscriptionId{3, 1}), {}});
    return encode_message(m);
  };
  EXPECT_NE(decode_message(frame(1u << 16)), std::nullopt);
  EXPECT_EQ(decode_message(frame((1u << 16) + 1)), std::nullopt);
}

}  // namespace
}  // namespace tmps
