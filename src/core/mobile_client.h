// A convenience handle over a mobile pub/sub client: tracks the client as it
// moves between brokers and forwards API calls to whichever broker of the
// host currently holds it, through HostCore::run_on (so on a threaded host
// every call is ordered with the broker's message handling). This is the
// public-facing "client library" view; the lower-level MobilityEngine API
// remains available for host integrations.
#pragma once

#include "core/mobility_engine.h"
#include "sim/host_core.h"

namespace tmps {

class MobileClient {
 public:
  MobileClient(ClientId id, HostCore& host) : id_(id), host_(&host) {}

  /// Creates and starts the client at `home`.
  static MobileClient connect(ClientId id, BrokerId home, HostCore& host);

  ClientId id() const { return id_; }

  /// Broker currently hosting the client, or kNoBroker if it is unknown
  /// (e.g. mid-hand-off from an external perspective). Tries the broker
  /// last seen first, then every broker in id order.
  BrokerId location() const;
  ClientState state() const;
  bool connected() const { return location() != kNoBroker; }

  /// Pub/sub operations, executed at the current host.
  SubscriptionId subscribe(const Filter& f);
  AdvertisementId advertise(const Filter& f);
  void unsubscribe(const SubscriptionId& id);
  void unadvertise(const AdvertisementId& id);
  void publish(Publication pub);

  /// Starts a movement transaction towards `target`. Returns kNoTxn if the
  /// client cannot move right now.
  TxnId move_to(BrokerId target);

  /// Application-level pause/resume (Fig. 4 pause_oper state).
  void pause();
  void resume();

 private:
  bool hosted_at(BrokerId b) const;
  /// Runs `op` at the client's current broker; a no-op when it has none.
  void at_host(const HostCore::Op& op) const;

  ClientId id_;
  HostCore* host_;
  mutable BrokerId last_seen_ = kNoBroker;
};

}  // namespace tmps
