#include "replay.h"

#include "pubsub/codec.h"
#include "pubsub/workload.h"

namespace perfbench {

namespace {

/// Queued messages processed after each replayed input: enough to keep up
/// with a publication's hops on the chain, few enough that a move's legs
/// interleave with the publications issued around it.
constexpr std::size_t kPumpBudget = 8;

std::uint64_t key_of(const tmps::Message& m) {
  if (const auto* p = std::get_if<tmps::PublishMsg>(&m.payload)) {
    return p->pub.id().seq;
  }
  if (const auto* p = std::get_if<tmps::SubscribeMsg>(&m.payload)) {
    return p->sub.id.client;
  }
  if (const auto* p = std::get_if<tmps::UnsubscribeMsg>(&m.payload)) {
    return p->sub_id.client;
  }
  return m.cause;
}

Layer encode_layer(const tmps::Message& m) {
  if (std::holds_alternative<tmps::PublishMsg>(m.payload)) {
    return Layer::kEncodePub;
  }
  return m.is_control() ? Layer::kEncodeCtl : Layer::kEncodeRoute;
}

Layer decode_layer(const tmps::Message& m) {
  if (std::holds_alternative<tmps::PublishMsg>(m.payload)) {
    return Layer::kDecodePub;
  }
  return m.is_control() ? Layer::kDecodeCtl : Layer::kDecodeRoute;
}

Layer handler_layer(const tmps::Message& m) {
  if (std::holds_alternative<tmps::PublishMsg>(m.payload)) {
    return Layer::kBrokerPublish;
  }
  if (!m.is_control()) return Layer::kBrokerSub;
  if (std::holds_alternative<tmps::MoveNegotiateMsg>(m.payload)) {
    return Layer::kCtlNegotiate;
  }
  if (std::holds_alternative<tmps::MoveApproveMsg>(m.payload)) {
    return Layer::kCtlApprove;
  }
  if (std::holds_alternative<tmps::MoveStateMsg>(m.payload)) {
    return Layer::kCtlState;
  }
  if (std::holds_alternative<tmps::MoveAckMsg>(m.payload)) {
    return Layer::kCtlAck;
  }
  return Layer::kCtlOther;
}

}  // namespace

ReplayHost::ReplayHost(const tmps::Overlay& overlay,
                       const tmps::BrokerConfig& cfg, SpanLog& spans)
    : overlay_(&overlay), spans_(&spans), epoch_ns_(now_ns()) {
  brokers_.resize(overlay.broker_count() + 1);
  engines_.resize(overlay.broker_count() + 1);
  for (tmps::BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    brokers_[b] = std::make_unique<tmps::Broker>(b, overlay_, cfg);
    brokers_[b]->set_observability(&tracer_, &metrics_);
    brokers_[b]->set_clock([this] { return now(); });
    engines_[b] = std::make_unique<tmps::MobilityEngine>(*brokers_[b], *this);
    engines_[b]->set_transmit(
        [this, b](tmps::Broker::Outputs out) { send(b, out); });
  }
}

tmps::SimTime ReplayHost::now() const {
  return static_cast<double>(now_ns() - epoch_ns_) * 1e-9;
}

void ReplayHost::schedule(double delay, std::function<void()> fn) {
  (void)delay;
  (void)fn;
}

void ReplayHost::movement_finished(tmps::MovementRecord rec) { (void)rec; }

void ReplayHost::on_cause_drained(tmps::TxnId cause,
                                  std::function<void()> fn) {
  (void)cause;
  fn();
}

void ReplayHost::match_at(tmps::BrokerId b, const tmps::Publication& pub) {
  const std::int64_t t0 = now_ns();
  const tmps::MatchResult mr = brokers_[b]->tables().match(pub);
  spans_->add(Layer::kRoutingMatch, static_cast<std::uint8_t>(b),
              pub.id().seq, t0, now_ns(),
              static_cast<std::uint32_t>(mr.matched));
}

void ReplayHost::send(tmps::BrokerId from, tmps::Broker::Outputs& out) {
  for (auto& [to, msg] : out) {
    std::uint32_t shipped = 0;
    if (const auto* st = std::get_if<tmps::MoveStateMsg>(&msg.payload)) {
      shipped = static_cast<std::uint32_t>(st->queued_notifications.size());
    }
    const std::int64_t t0 = now_ns();
    std::string bytes = tmps::encode_message(msg);
    spans_->add(encode_layer(msg), static_cast<std::uint8_t>(from),
                key_of(msg), t0, now_ns(), shipped);
    queue_.push_back({from, to, std::move(bytes)});
  }
}

void ReplayHost::pump(std::size_t budget) {
  while (budget-- > 0 && !queue_.empty()) {
    const std::int64_t t0 = now_ns();
    std::optional<tmps::Message> msg =
        tmps::decode_message(queue_.front().bytes);
    const std::int64_t t1 = now_ns();
    const tmps::BrokerId from = queue_.front().from;
    const tmps::BrokerId to = queue_.front().to;
    if (!msg) {
      ++decode_failures_;
      queue_.pop_front();
      continue;
    }
    const std::uint64_t key = key_of(*msg);
    const auto to8 = static_cast<std::uint8_t>(to);
    spans_->add(decode_layer(*msg), to8, key, t0, t1);
    const std::int64_t t2 = now_ns();
    tmps::Broker::Outputs out = brokers_[to]->on_message(from, *msg);
    const std::int64_t t3 = now_ns();
    std::uint32_t transit = 0;
    for (const auto& o : out) {
      if (std::holds_alternative<tmps::PublishMsg>(o.second.payload)) {
        transit = 1;
      }
    }
    spans_->add(handler_layer(*msg), to8, key, t2, t3, transit);
    // Matched again after the broker's own pass, so on_message keeps the
    // cache state it has on the TCP host and this timing sees a warm table.
    if (const auto* p = std::get_if<tmps::PublishMsg>(&msg->payload)) {
      match_at(to, p->pub);
    }
    send(to, out);
    const std::int64_t t4 = now_ns();
    out.clear();
    msg.reset();
    queue_.pop_front();
    spans_->add(Layer::kRelease, to8, key, t4, now_ns());
  }
}

ReplayResult run_replay(const Workload& w, const Inputs& in) {
  ReplayResult r;
  const tmps::Overlay overlay = tmps::Overlay::chain(w.brokers);
  tmps::BrokerConfig cfg;
  cfg.subscription_covering = false;
  cfg.advertisement_covering = false;
  ReplayHost host(overlay, cfg, r.spans);

  const std::uint32_t movers = in.movers();
  const tmps::ClientId mover_base =
      movers > 0 ? in.subs[in.stationary].client : 0;
  std::vector<char> settled(movers, 1);  // the mover's last move resolved
  std::vector<tmps::BrokerId> at(movers);
  for (std::uint32_t m = 0; m < movers; ++m) {
    at[m] = in.subs[in.stationary + m].home;
  }
  const auto other = [&](tmps::BrokerId b) {
    return b == w.mover_a ? w.mover_b : w.mover_a;
  };
  for (tmps::BrokerId b = 1; b <= w.brokers; ++b) {
    host.engine(b).set_move_callback([&](const tmps::MovementRecord& rec) {
      if (rec.client < mover_base || rec.client - mover_base >= movers) return;
      const auto m = static_cast<std::uint32_t>(rec.client - mover_base);
      settled[m] = 1;
      if (rec.committed) {
        at[m] = other(at[m]);
        ++r.moves;
      }
    });
  }

  // Publications are built before the timed pass: making them is the
  // generator's work, not a layer's.
  std::vector<std::optional<tmps::Publication>> prebuilt(in.pubs.size());
  const auto prebuild = [&](std::uint32_t b, std::uint32_t e) {
    for (std::uint32_t i = b; i < e; ++i) prebuilt[i] = publication_of(in, i);
  };
  const auto replayed_end = [&](Phase p) {
    return std::min(in.phase_begin[p + 1], in.phase_begin[p] + w.replay_pubs);
  };
  prebuild(in.phase_begin[kOpen], replayed_end(kOpen));
  prebuild(in.phase_begin[kPaced], in.phase_begin[kPaced + 1]);
  prebuild(in.phase_begin[kClosed], replayed_end(kClosed));
  const std::size_t replayed_pubs =
      replayed_end(kOpen) - in.phase_begin[kOpen] + in.phase_pubs(kPaced) +
      replayed_end(kClosed) - in.phase_begin[kClosed];
  // Room for every span (at most ~6 per hop of each message), so that
  // growing the log never lands in the timed pass.
  r.spans.reserve(6 * w.brokers *
                  (replayed_pubs + 16 * std::size_t{w.replay_moves} +
                   in.subs.size() + 2 * in.churn.size()));

  const std::int64_t t0 = now_ns();
  const std::uint64_t publisher_key = in.publisher;
  host.run_on(w.publisher_at, Layer::kCoreSub, publisher_key,
              [&](tmps::MobilityEngine& e, tmps::Broker::Outputs& out) {
                e.connect_client(in.publisher);
                e.advertise(in.publisher, tmps::full_space_advertisement(),
                            out);
              });
  host.pump_all();
  std::vector<tmps::SubscriptionId> ids(in.subs.size());
  for (std::uint32_t s = 0; s < in.subs.size(); ++s) {
    const SubSpec& spec = in.subs[s];
    const tmps::Filter f = filter_of(spec, spec.iv);
    const std::uint64_t key = spec.client;
    host.run_on(spec.home, Layer::kCoreSub, key,
                [&](tmps::MobilityEngine& e, tmps::Broker::Outputs& out) {
                  e.connect_client(spec.client);
                  ids[s] = e.subscribe(spec.client, f, out);
                });
    host.pump_all();
  }

  std::size_t next_churn = 0;
  const auto publish = [&](std::uint32_t i) {
    // Replacements due before i, including those of skipped tails, keep
    // the tables in step with the TCP run.
    while (next_churn < in.churn.size() &&
           in.churn[next_churn].before_pub <= i) {
      const ChurnOp& op = in.churn[next_churn++];
      const SubSpec& spec = in.subs[op.sub];
      const tmps::Filter f = filter_of(spec, op.iv);
      const std::uint64_t key = spec.client;
      host.run_on(spec.home, Layer::kCoreSub, key,
                  [&](tmps::MobilityEngine& e, tmps::Broker::Outputs& out) {
                    e.unsubscribe(spec.client, ids[op.sub], out);
                    ids[op.sub] = e.subscribe(spec.client, f, out);
                  });
      host.pump(kPumpBudget);
    }
    tmps::Publication& pub = *prebuilt[i];
    const std::uint64_t key = pub.id().seq;
    // The origin's table is matched before the engine publishes (the
    // publication moves into the engine).
    host.match_at(w.publisher_at, pub);
    host.run_on(w.publisher_at, Layer::kCorePublish, key,
                [&](tmps::MobilityEngine& e, tmps::Broker::Outputs& out) {
                  e.publish(in.publisher, std::move(pub), out);
                });
    host.pump(kPumpBudget);
    ++r.pubs;
  };

  const auto publish_prefix = [&](Phase p) {
    for (std::uint32_t i = in.phase_begin[p]; i < replayed_end(p); ++i) {
      publish(i);
    }
  };
  publish_prefix(kOpen);

  // Paced-phase inputs: moves round-robin over the movers, background
  // publications spread between them in the TCP run's proportion.
  const std::uint32_t all_moves = in.paced_moves_per_mover * movers;
  const std::uint32_t moves = std::min(all_moves, w.replay_moves);
  r.planned_moves = moves;
  const double pubs_per_move =
      all_moves > 0 ? static_cast<double>(in.phase_pubs(kPaced)) / all_moves
                    : 0.0;
  std::uint32_t next_pub = in.phase_begin[kPaced];
  double credit = 0;
  for (std::uint32_t k = 0; k < moves; ++k) {
    const std::uint32_t m = k % movers;
    while (!settled[m] && !host.idle()) host.pump(1);
    // A move that never resolves leaves the rest unissued; the caller
    // counts every planned move that did not commit as failed.
    if (!settled[m]) break;
    const tmps::ClientId client = mover_base + m;
    const tmps::BrokerId from = at[m];
    std::uint64_t txn = 0;
    host.run_on(from, Layer::kCoreInitiate, txn,
                [&](tmps::MobilityEngine& e, tmps::Broker::Outputs& out) {
                  txn = e.try_initiate_move(client, other(from), out).txn;
                });
    settled[m] = txn == tmps::kNoTxn;
    host.pump(kPumpBudget);
    for (credit += pubs_per_move;
         credit >= 1 && next_pub < in.phase_begin[kPaced + 1]; credit -= 1) {
      publish(next_pub++);
    }
  }
  host.pump_all();
  publish_prefix(kClosed);
  host.pump_all();
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.decode_failures = host.decode_failures();
  return r;
}

}  // namespace perfbench
