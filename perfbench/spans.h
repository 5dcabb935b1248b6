// In-memory spans of the traced run. Spans come only from the benchmark's
// own code, wrapped around its calls into a layer's public functions; all
// spans of one publication share its sequence number and all spans of one
// move share its transaction id. They are written out at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kCorePublish,        // MobilityEngine::publish
  kCoreSub,            // MobilityEngine::subscribe / unsubscribe
  kCoreInitiate,       // MobilityEngine::try_initiate_move
  kTransportDispatch,  // TcpTransport::run_on after its op returned
  kEncodePub,          // encode_message, PublishMsg
  kDecodePub,          // decode_message, PublishMsg
  kEncodeCtl,          // encode_message, movement messages
  kDecodeCtl,          // decode_message, movement messages
  kEncodeRoute,        // encode_message, (un)subscribe / (un)advertise
  kDecodeRoute,        // decode_message, (un)subscribe / (un)advertise
  kBrokerPublish,      // Broker::on_message(PublishMsg)
  kBrokerSub,          // Broker::on_message, routing messages
  kCtlNegotiate,       // Broker::on_message, MoveNegotiateMsg hop
  kCtlApprove,         // Broker::on_message, MoveApproveMsg hop
  kCtlState,           // Broker::on_message, MoveStateMsg hop
  kCtlAck,             // Broker::on_message, MoveAckMsg hop
  kCtlOther,           // Broker::on_message, any other control message
  kRoutingMatch,       // RoutingTables::match
  kRelease,            // freeing a hop's decoded message, frame and outputs
  kCount,
};

const char* to_string(Layer l);

struct Span {
  Layer layer = Layer::kCount;
  std::uint8_t broker = 0;
  /// Layer-specific count: matched entries (kRoutingMatch), 1 for a
  /// transit hop (kBrokerPublish), shipped notifications (kEncodeCtl of a
  /// MoveStateMsg).
  std::uint32_t aux = 0;
  std::uint64_t key = 0;  ///< publication sequence or transaction id
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(Layer layer, std::uint8_t broker, std::uint64_t key,
           std::int64_t start_ns, std::int64_t end_ns, std::uint32_t aux = 0) {
    spans_.push_back({layer, broker, aux, key, start_ns, end_ns - start_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span, labelled with `run` (tcp / replay).
  void write_jsonl(std::ostream& os, const char* run) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
