// Binds the session layer to a TcpTransport: edge-client frames routed into
// each broker's SessionManager, acks and deliveries pushed back down the
// client sockets, socket EOFs turned into session disconnects, and a
// GET /sessions admin route per broker.
//
// The managers are the transport's own (HostCore builds one per broker when
// its BrokerConfig::session is enabled), and every manager entry point runs
// at its broker through TcpTransport::run_on or the broker runtime's timers,
// under the broker's state lock, mirroring how overlay frames are
// processed — the managers themselves stay single-threaded.
#pragma once

#include "session/session_manager.h"
#include "transport/tcp_transport.h"

namespace tmps::session {

class TcpSessionHost {
 public:
  /// Call before transport.start(), on a transport built with
  /// BrokerConfig::session enabled. Registers the frame/disconnect handlers,
  /// the delivery sinks, the client channels and the admin routes; they
  /// refer to the transport only, so this object may go before it does.
  explicit TcpSessionHost(TcpTransport& transport);

  /// Starts every manager's timer sweeps, the first after one
  /// tick_interval (call after transport.start()). They run until the
  /// transport stops.
  void start();

 private:
  TcpTransport* transport_;
};

}  // namespace tmps::session
