#include "sim/network.h"

#include <cassert>
#include <cmath>

namespace tmps {

NetworkProfile NetworkProfile::lan() { return NetworkProfile{}; }

NetworkProfile NetworkProfile::planetlab() {
  NetworkProfile p;
  p.link_delay = 0.040;
  p.link_service = 0.0002;
  // PlanetLab nodes are shared and slow: every message class costs more.
  p.pub_proc = 0.008;
  p.sub_proc = 0.025;
  p.control_proc = 0.004;
  p.delay_jitter = 0.020;
  p.heterogeneous_links = true;
  return p;
}

SimNetwork::SimNetwork(const Overlay& overlay, BrokerConfig broker_cfg,
                       NetworkProfile profile)
    : overlay_(&overlay), profile_(profile), rng_(profile.seed) {
  msgs_sent_ = &metrics()->counter("sim_messages_total");
  msgs_dropped_ = &metrics()->counter("sim_messages_dropped_total");
  link_wait_ = &metrics()->histogram("sim_link_wait_seconds");
  broker_wait_ = &metrics()->histogram("sim_broker_wait_seconds");
  brokers_.resize(overlay.broker_count() + 1);
  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    brokers_[b].broker = std::make_unique<Broker>(b, overlay_, broker_cfg);
    attach(*brokers_[b].broker);
  }
  // Pre-create directed link states; heterogeneous profiles draw a per-link
  // base delay once (log-normal around the configured mean) and use it for
  // both directions.
  std::lognormal_distribution<double> logn(std::log(profile_.link_delay), 0.7);
  for (const auto& [a, b] : overlay.edges()) {
    double d = profile_.link_delay;
    if (profile_.heterogeneous_links) d = logn(rng_);
    links_[{a, b}].base_delay = d;
    links_[{b, a}].base_delay = d;
  }
}

SimNetwork::~SimNetwork() = default;

Broker& SimNetwork::broker(BrokerId id) {
  assert(id >= 1 && id < brokers_.size());
  return *brokers_[id].broker;
}

void SimNetwork::schedule(double delay, std::function<void()> fn) {
  events_.schedule_in(delay, std::move(fn));
}

SimNetwork::LinkState& SimNetwork::link(BrokerId from, BrokerId to) {
  auto it = links_.find({from, to});
  assert(it != links_.end() && "message sent over a non-existent link");
  return it->second;
}

double SimNetwork::jitter() {
  if (profile_.delay_jitter <= 0) return 0;
  std::exponential_distribution<double> exp(1.0 / profile_.delay_jitter);
  return exp(rng_);
}

void SimNetwork::transmit(BrokerId from, Broker::Outputs outputs) {
  for (auto& [to, msg] : outputs) send_one(from, to, std::move(msg));
}

void SimNetwork::run_local(BrokerId b,
                           const std::function<Broker::Outputs(Broker&)>& op) {
  transmit(b, op(broker(b)));
}

void SimNetwork::send_one(BrokerId from, BrokerId to, Message msg) {
  FaultAction fault;
  if (fault_hook_) fault = fault_hook_(from, to, msg);

  if (profile_.duplicate_prob > 0) {
    std::bernoulli_distribution dup(profile_.duplicate_prob);
    if (dup(rng_)) {
      Message copy = msg;
      // Recurse once with duplication disabled for the copy (bounded).
      const double saved = profile_.duplicate_prob;
      profile_.duplicate_prob = 0;
      send_one(from, to, std::move(copy));
      profile_.duplicate_prob = saved;
    }
  }
  if (fault.duplicate) {
    // The injected copy bypasses the FIFO clamp: it models a late
    // retransmission and may arrive after (and reordered with) traffic
    // sent much later.
    Message copy = msg;
    count_send(from, to, copy);
    msgs_sent_->inc();
    const double at = events_.now() + profile_.link_service +
                      link(from, to).base_delay + fault.duplicate_delay;
    events_.schedule_at(at, [this, from, to, m = std::move(copy)]() mutable {
      arrive(from, to, std::move(m));
    });
  }

  count_send(from, to, msg);
  if (fault.drop) {
    // A genuine loss: it never arrives, so it leaves the ledger at once.
    retire(msg.cause);
    msgs_dropped_->inc();
    return;
  }
  msgs_sent_->inc();

  LinkState& l = link(from, to);
  const double now = events_.now();
  const double start = std::max({now, l.next_free, l.paused_until});
  link_wait_->observe(start - now);
  const double depart = start + profile_.link_service;
  l.next_free = depart;
  double at = depart + l.base_delay + jitter() + fault.extra_delay;
  if (fault.extra_delay > 0) {
    // An injected delay deliberately breaks FIFO: later traffic may
    // overtake this message (and l.last_arrival is left alone so it does
    // not hold later messages back).
  } else {
    // Links are FIFO: jitter must not reorder messages in one direction.
    at = std::max(at, l.last_arrival);
    l.last_arrival = at;
  }
  events_.schedule_at(at, [this, from, to, m = std::move(msg)]() mutable {
    arrive(from, to, std::move(m));
  });
}

void SimNetwork::arrive(BrokerId from, BrokerId to, Message msg) {
  BrokerState& b = brokers_[to];
  const double start =
      std::max({events_.now(), b.next_free, b.paused_until});
  broker_wait_->observe(start - events_.now());
  // Per-message processing cost by class: publications pay a matching pass,
  // (un)subscriptions/(un)advertisements pay covering checks, movement
  // control messages pay only relay/bookkeeping work.
  double proc = profile_.control_proc;
  const bool is_pub = std::holds_alternative<PublishMsg>(msg.payload);
  if (is_pub) {
    proc = profile_.pub_proc;
  } else if (!msg.is_control()) {
    proc = profile_.sub_proc;
  }
  stats().count_broker_message(to, is_pub);
  if (profile_.proc_per_entry > 0 && !msg.is_control()) {
    const auto entries = b.broker->tables().prt().size() +
                         b.broker->tables().srt().size();
    proc += profile_.proc_per_entry * static_cast<double>(entries);
  }
  const double done = start + proc;
  b.next_free = done;
  b.busy_seconds += proc;
  events_.schedule_at(done, [this, from, to, m = std::move(msg)]() mutable {
    process(from, to, std::move(m));
  });
}

void SimNetwork::process(BrokerId from, BrokerId to, Message msg) {
  Broker::Outputs outputs = broker(to).on_message(from, msg);
  // Children are counted before this message is retired so a causal chain
  // only reads as drained when it truly is.
  transmit(to, std::move(outputs));
  retire(msg.cause);
}

double SimNetwork::broker_busy_seconds(BrokerId b) const {
  assert(b >= 1 && b < brokers_.size());
  return brokers_[b].busy_seconds;
}

double SimNetwork::broker_backlog_seconds(BrokerId b) const {
  assert(b >= 1 && b < brokers_.size());
  const double backlog = brokers_[b].next_free - events_.now();
  return backlog > 0 ? backlog : 0.0;
}

void SimNetwork::snapshot_routing(std::vector<obs::BrokerSnapshot>& out,
                                  bool final_snapshot) {
  for (BrokerId b = 1; b < brokers_.size(); ++b) {
    obs::BrokerSnapshot snap;
    snap.time = events_.now();
    snap.final_snapshot = final_snapshot;
    brokers_[b].broker->snapshot(snap);
    out.push_back(std::move(snap));
  }
}

void SimNetwork::pause_broker(BrokerId b, double duration) {
  auto& st = brokers_[b];
  st.paused_until = std::max(st.paused_until, events_.now() + duration);
}

void SimNetwork::pause_link(BrokerId a, BrokerId b, double duration) {
  const double until = events_.now() + duration;
  for (auto key : {std::pair{a, b}, std::pair{b, a}}) {
    auto& l = links_[key];
    l.paused_until = std::max(l.paused_until, until);
  }
}

}  // namespace tmps
