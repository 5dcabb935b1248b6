#include "sim/host_core.h"

#include <cassert>

#include "broker/broker.h"

namespace tmps {

HostCore::HostCore() {
  tracer_.set_clock([this] { return now(); });
}

void HostCore::attach(Broker& broker) {
  broker.set_observability(&tracer_, &metrics_);
  broker.set_clock([this] { return now(); });
}

std::uint64_t HostCore::outstanding(TxnId cause) const {
  std::lock_guard lock(mu_);
  auto it = outstanding_.find(cause);
  return it == outstanding_.end() ? 0 : it->second;
}

std::map<TxnId, std::uint64_t> HostCore::outstanding_causes() const {
  std::lock_guard lock(mu_);
  return outstanding_;
}

void HostCore::movement_finished(MovementRecord rec) {
  std::lock_guard lock(mu_);
  stats_.record_movement(std::move(rec));
}

void HostCore::on_cause_drained(TxnId cause, std::function<void()> fn) {
  {
    std::lock_guard lock(mu_);
    if (outstanding_.contains(cause)) {
      drain_watchers_[cause].push_back(std::move(fn));
      return;
    }
  }
  fn();
}

void HostCore::count_send(BrokerId from, BrokerId to, const Message& msg) {
  ++in_flight_;
  std::lock_guard lock(mu_);
  stats_.count_message(from, to, msg.type_name(), msg.cause);
  if (msg.cause != kNoTxn) ++outstanding_[msg.cause];
}

void HostCore::retire(TxnId cause) {
  std::vector<std::function<void()>> fire;
  if (cause != kNoTxn) {
    std::lock_guard lock(mu_);
    auto it = outstanding_.find(cause);
    assert(it != outstanding_.end() && "cause retired more often than sent");
    if (it != outstanding_.end() && --it->second == 0) {
      outstanding_.erase(it);
      if (auto w = drain_watchers_.find(cause); w != drain_watchers_.end()) {
        fire = std::move(w->second);
        drain_watchers_.erase(w);
      }
    }
  }
  for (auto& fn : fire) fn();
  // Last, so a host that sees nothing in flight sees the watchers run too.
  assert(in_flight_ > 0);
  --in_flight_;
}

}  // namespace tmps
