#include "pubsub/messages.h"

#include <type_traits>

namespace tmps {

namespace {

template <class Variant>
struct PayloadNames;

template <class... M>
struct PayloadNames<std::variant<M...>> {
  static constexpr std::string_view kNames[] = {M::kName...};
};

/// Index of PublishMsg, the last routing payload.
constexpr std::size_t kLastRouting = 4;
static_assert(std::is_same_v<std::variant_alternative_t<kLastRouting, Payload>,
                             PublishMsg>);

}  // namespace

const char* to_string(RepairVerdict v) {
  switch (v) {
    case RepairVerdict::InFlight:
      return "in-flight";
    case RepairVerdict::Committed:
      return "committed";
    case RepairVerdict::Aborted:
      return "aborted";
  }
  return "?";
}

const char* to_string(SessionVerdict v) {
  switch (v) {
    case SessionVerdict::Resumed:
      return "resumed";
    case SessionVerdict::Moving:
      return "moving";
    case SessionVerdict::Forwarding:
      return "forwarding";
    case SessionVerdict::Expired:
      return "expired";
    case SessionVerdict::Unknown:
      return "unknown";
  }
  return "?";
}

std::string_view Message::type_name() const {
  return PayloadNames<Payload>::kNames[payload.index()];
}

bool Message::is_control() const { return payload.index() > kLastRouting; }

std::string to_string(const Message& m) {
  std::string s = "msg#" + std::to_string(m.id) + " " +
                  std::string(m.type_name());
  if (m.unicast_dest) s += " ->B" + std::to_string(*m.unicast_dest);
  return s;
}

}  // namespace tmps
