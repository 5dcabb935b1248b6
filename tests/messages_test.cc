#include "pubsub/messages.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "pubsub/workload.h"
#include "routing/hop.h"

namespace tmps {
namespace {

template <std::size_t... I>
std::vector<std::string_view> type_names(std::index_sequence<I...>) {
  std::vector<std::string_view> names;
  Message m;
  ((m.payload.emplace<I>(), names.push_back(m.type_name())), ...);
  return names;
}

// Every Payload alternative, appended ones included, has a distinct,
// non-empty name: the flight recorder, failure injection and Stats key on it.
TEST(Messages, TypeNamesAreDistinct) {
  const std::vector<std::string_view> names =
      type_names(std::make_index_sequence<std::variant_size_v<Payload>>());
  std::set<std::string_view> distinct;
  for (const std::string_view name : names) {
    EXPECT_FALSE(name.empty());
    distinct.insert(name);
  }
  EXPECT_EQ(distinct.size(), names.size());
}

TEST(Messages, RoutingPayloadsAreNotControl) {
  for (Payload p : std::initializer_list<Payload>{
           AdvertiseMsg{}, UnadvertiseMsg{}, SubscribeMsg{}, UnsubscribeMsg{},
           PublishMsg{}}) {
    Message m;
    m.payload = p;
    EXPECT_FALSE(m.is_control()) << m.type_name();
  }
}

TEST(Messages, MovementPayloadsAreControl) {
  for (Payload p : std::initializer_list<Payload>{
           MoveNegotiateMsg{}, MoveApproveMsg{}, MoveRejectMsg{},
           MoveStateMsg{}, MoveAckMsg{}, MoveAbortMsg{}, BufferedStateMsg{},
           TradMoveRequestMsg{}, TradReadyMsg{}, TradRejectMsg{},
           RepairDigestMsg{}, RepairRequestMsg{}, RepairProbeMsg{},
           RepairVerdictMsg{}, SessionOpenMsg{}, SessionResumeMsg{},
           SessionAckMsg{}, SessionHeartbeatMsg{}, SessionCloseMsg{},
           SessionForwardMsg{}}) {
    Message m;
    m.payload = p;
    EXPECT_TRUE(m.is_control()) << m.type_name();
  }
}

TEST(Messages, SessionVerdictNamesAreDistinct) {
  std::set<std::string> names;
  for (SessionVerdict v :
       {SessionVerdict::Resumed, SessionVerdict::Moving,
        SessionVerdict::Forwarding, SessionVerdict::Expired,
        SessionVerdict::Unknown}) {
    names.insert(to_string(v));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(Messages, ToStringIncludesDestination) {
  Message m;
  m.id = 7;
  m.unicast_dest = 12;
  m.payload = MoveAckMsg{};
  const std::string s = to_string(m);
  EXPECT_NE(s.find("move-ack"), std::string::npos);
  EXPECT_NE(s.find("B12"), std::string::npos);
}

TEST(Ids, EntityIdOrderingAndHash) {
  const EntityId a{1, 1}, b{1, 2}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (EntityId{1, 1}));
  std::hash<EntityId> h;
  EXPECT_NE(h(a), h(b));
  EXPECT_NE(h(a), h(c));
  EXPECT_EQ(to_string(a), "1:1");
}

TEST(Hop, KindsAndEquality) {
  const Hop none = Hop::none();
  const Hop b = Hop::of_broker(3);
  const Hop c = Hop::of_client(9);
  EXPECT_TRUE(none.is_none());
  EXPECT_TRUE(b.is_broker());
  EXPECT_TRUE(c.is_client());
  EXPECT_NE(b, c);
  EXPECT_NE(b, Hop::of_broker(4));
  EXPECT_EQ(b, Hop::of_broker(3));
  EXPECT_EQ(b.to_string(), "B3");
  EXPECT_EQ(c.to_string(), "C9");
  std::hash<Hop> h;
  EXPECT_NE(h(b), h(c));
  // A broker and client with the same numeric id must hash differently.
  EXPECT_NE(h(Hop::of_broker(5)), h(Hop::of_client(5)));
}

}  // namespace
}  // namespace tmps
