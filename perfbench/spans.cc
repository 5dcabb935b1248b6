#include "spans.h"

namespace perfbench {

const char* to_string(Layer l) {
  switch (l) {
    case Layer::kCorePublish: return "core.publish";
    case Layer::kCoreSub: return "core.sub";
    case Layer::kCoreInitiate: return "core.initiate";
    case Layer::kTransportDispatch: return "transport.dispatch";
    case Layer::kEncodePub: return "pubsub.encode.pub";
    case Layer::kDecodePub: return "pubsub.decode.pub";
    case Layer::kEncodeCtl: return "pubsub.encode.ctl";
    case Layer::kDecodeCtl: return "pubsub.decode.ctl";
    case Layer::kEncodeRoute: return "pubsub.encode.route";
    case Layer::kDecodeRoute: return "pubsub.decode.route";
    case Layer::kBrokerPublish: return "broker.publish";
    case Layer::kBrokerSub: return "broker.sub";
    case Layer::kCtlNegotiate: return "core.control.negotiate";
    case Layer::kCtlApprove: return "core.control.approve";
    case Layer::kCtlState: return "core.control.state";
    case Layer::kCtlAck: return "core.control.ack";
    case Layer::kCtlOther: return "core.control.other";
    case Layer::kRoutingMatch: return "routing.match";
    case Layer::kRelease: return "pubsub.release";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLog::write_jsonl(std::ostream& os, const char* run) const {
  for (const Span& s : spans_) {
    os << "{\"run\":\"" << run << "\",\"layer\":\"" << to_string(s.layer)
       << "\",\"broker\":" << static_cast<int>(s.broker) << ",\"key\":" << s.key
       << ",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
       << ",\"aux\":" << s.aux << "}\n";
  }
}

}  // namespace perfbench
