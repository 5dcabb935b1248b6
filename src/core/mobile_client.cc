#include "core/mobile_client.h"

namespace tmps {

MobileClient MobileClient::connect(ClientId id, BrokerId home,
                                   HostCore& host) {
  if (host.overlay().contains(home)) {
    host.run_on(home, [id](MobilityEngine& e, Broker::Outputs&) {
      e.connect_client(id);
    });
  }
  return MobileClient(id, host);
}

bool MobileClient::hosted_at(BrokerId b) const {
  bool found = false;
  host_->run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
    found = e.find_client(id_) != nullptr;
  });
  return found;
}

BrokerId MobileClient::location() const {
  if (last_seen_ != kNoBroker && hosted_at(last_seen_)) return last_seen_;
  last_seen_ = kNoBroker;
  for (BrokerId b = 1; b <= host_->overlay().broker_count(); ++b) {
    if (hosted_at(b)) return last_seen_ = b;
  }
  return kNoBroker;
}

void MobileClient::at_host(const HostCore::Op& op) const {
  const BrokerId b = location();
  if (b != kNoBroker) host_->run_on(b, op);
}

ClientState MobileClient::state() const {
  ClientState st = ClientState::Init;
  at_host([&](MobilityEngine& e, Broker::Outputs&) {
    if (const ClientStub* stub = e.find_client(id_)) st = stub->state();
  });
  return st;
}

SubscriptionId MobileClient::subscribe(const Filter& f) {
  SubscriptionId id;
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    id = e.subscribe(id_, f, out);
  });
  return id;
}

AdvertisementId MobileClient::advertise(const Filter& f) {
  AdvertisementId id;
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    id = e.advertise(id_, f, out);
  });
  return id;
}

void MobileClient::unsubscribe(const SubscriptionId& id) {
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    e.unsubscribe(id_, id, out);
  });
}

void MobileClient::unadvertise(const AdvertisementId& id) {
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    e.unadvertise(id_, id, out);
  });
}

void MobileClient::publish(Publication pub) {
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(id_, std::move(pub), out);
  });
}

TxnId MobileClient::move_to(BrokerId target) {
  TxnId txn = kNoTxn;
  at_host([&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(id_, target, out);
  });
  return txn;
}

void MobileClient::pause() {
  at_host([&](MobilityEngine& e, Broker::Outputs&) {
    ClientStub* stub = e.find_client(id_);
    if (stub && stub->state() == ClientState::Started) stub->pause();
  });
}

void MobileClient::resume() {
  at_host([&](MobilityEngine& e, Broker::Outputs&) {
    ClientStub* stub = e.find_client(id_);
    if (stub && stub->state() == ClientState::PauseOper) stub->resume();
  });
}

}  // namespace tmps
