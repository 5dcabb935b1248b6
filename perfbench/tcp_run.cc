#include "tcp_run.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "pubsub/workload.h"
#include "routing/overlay.h"
#include "transport/tcp_transport.h"

namespace perfbench {

namespace {

using tmps::BrokerId;
using tmps::ClientId;
using tmps::MobilityEngine;
using Outputs = tmps::Broker::Outputs;

/// A phase that sees no completion for this long is abandoned; whatever
/// it left undelivered counts as lost.
constexpr std::int64_t kStallNs = 10'000'000'000;
/// Completion poll of the paced phase, whose next operations wait on a
/// schedule rather than on the completions themselves.
constexpr std::int64_t kPacedPollNs = 1'000'000;

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Sleeps most of the way to `due`, then yields until it passes, so the
/// generator leaves on schedule without holding a core between operations.
void wait_until(std::int64_t due) {
  for (;;) {
    const std::int64_t rem = due - now_ns();
    if (rem <= 0) return;
    if (rem > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(rem - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Waits until every frame sent so far has been received and handled:
/// the host's sent and received frame counters agree, and still agree after
/// a no-op run_on on each broker, which waits out any broker that a reader
/// thread is handling a frame on. A reader sends its outputs only after
/// releasing the broker, so a frame can still be about to leave and the
/// clock then stops a few hops early; drain() after the clock stops waits
/// for the rest. False if frames stay unaccounted for kStallNs.
bool wait_quiet(tmps::TcpTransport& host, BrokerId brokers) {
  const tmps::obs::Counter& sent_c =
      host.metrics()->counter("tcp_frames_sent_total");
  const tmps::obs::Counter& received_c =
      host.metrics()->counter("tcp_frames_received_total");
  const auto sent = [&] { return sent_c.value(); };
  const auto settled = [&] {
    return received_c.value() + host.decode_failures() == sent();
  };
  const std::int64_t t0 = now_ns();
  while (now_ns() - t0 < kStallNs) {
    if (!settled()) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t before = sent();
    for (BrokerId b = 1; b <= brokers; ++b) {
      host.run_on(b, [](MobilityEngine&, Outputs&) {});
    }
    if (sent() == before && settled()) return true;
  }
  return false;
}

struct MoveSlot {
  std::atomic<std::int64_t> end_ns{0};
  std::atomic<std::uint64_t> txn{0};
  std::atomic<std::uint8_t> state{0};  // 0 open, 1 commit, 2 abort, 3 refused
};

/// Preallocated per-sequence slots. The delivery sinks and move callbacks
/// run on the transport's reader threads while holding a broker lock, so
/// they only write here.
struct Slots {
  Slots(const Oracle& o, const Inputs& in, std::size_t move_slots)
      : oracle(o),
        publisher(in.publisher),
        mover_base(in.movers() > 0 ? in.subs[in.stationary].client : 0),
        movers(in.movers()),
        count(std::make_unique<std::atomic<std::uint32_t>[]>(o.slots())),
        first_ns(std::make_unique<std::atomic<std::int64_t>[]>(o.slots())),
        arrived(std::make_unique<std::atomic<std::uint32_t>[]>(o.pubs())),
        done_ns(std::make_unique<std::atomic<std::int64_t>[]>(o.pubs())),
        unexpected(std::make_unique<std::atomic<std::uint32_t>[]>(o.pubs())),
        moves(std::make_unique<MoveSlot[]>(move_slots)),
        cur_move(std::make_unique<std::atomic<std::uint32_t>[]>(movers)) {}

  void on_delivery(ClientId c, const tmps::Publication& p) {
    const std::int64_t t = now_ns();
    const std::uint32_t i = p.id().seq - kPubSeqBase;  // wraps below the base
    if (p.id().client != publisher || i >= oracle.pubs()) {
      stray.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::uint32_t s = oracle.begin(i); s < oracle.begin(i + 1); ++s) {
      const Oracle::Receiver& r = oracle.slot(s);
      if (r.client != c) continue;
      if (count[s].fetch_add(1, std::memory_order_relaxed) == 0) {
        first_ns[s].store(t, std::memory_order_relaxed);
        if (!r.maybe &&
            arrived[i].fetch_add(1, std::memory_order_acq_rel) + 1 ==
                oracle.required(i)) {
          done_ns[i].store(t, std::memory_order_release);
        }
      }
      return;
    }
    unexpected[i].fetch_add(1, std::memory_order_relaxed);
  }

  void on_move(const tmps::MovementRecord& rec) {
    const std::int64_t t = now_ns();
    if (rec.client < mover_base || rec.client - mover_base >= movers) return;
    MoveSlot& s = moves[cur_move[rec.client - mover_base].load(
        std::memory_order_acquire)];
    s.txn.store(rec.txn, std::memory_order_relaxed);
    s.end_ns.store(t, std::memory_order_relaxed);
    s.state.store(rec.committed ? 1 : 2, std::memory_order_release);
  }

  const Oracle& oracle;
  const ClientId publisher;
  const ClientId mover_base;
  const std::uint32_t movers;
  std::unique_ptr<std::atomic<std::uint32_t>[]> count;
  std::unique_ptr<std::atomic<std::int64_t>[]> first_ns;
  std::unique_ptr<std::atomic<std::uint32_t>[]> arrived;
  std::unique_ptr<std::atomic<std::int64_t>[]> done_ns;
  std::unique_ptr<std::atomic<std::uint32_t>[]> unexpected;
  std::atomic<std::uint64_t> stray{0};
  std::unique_ptr<MoveSlot[]> moves;
  std::unique_ptr<std::atomic<std::uint32_t>[]> cur_move;
};

class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, const Oracle& oracle,
         const TcpOptions& opt, TcpRun& out)
      : w_(w),
        in_(in),
        oracle_(oracle),
        opt_(opt),
        out_(out),
        overlay_(tmps::Overlay::chain(w.brokers)),
        move_slots_(static_cast<std::size_t>(in.movers()) *
                    (in.paced_moves_per_mover + in.unpaced_moves_per_mover)),
        slots_(oracle, in, move_slots_),
        sub_ids_(in.subs.size()),
        mover_at_(in.movers()) {
    cfg_.subscription_covering = false;
    cfg_.advertisement_covering = false;
    out_.due_ns.assign(in.pubs.size(), 0);
    out_.start_ns.assign(in.pubs.size(), 0);
    out_.move_start_ns.assign(move_slots_, 0);
    out_.paced_slots = in.movers() * in.paced_moves_per_mover;
    if (opt_.traced) out_.spans.reserve(in.pubs.size() * 2 + in.subs.size() +
                                        in.churn.size() + move_slots_);
  }

  bool setup();
  void open_phase();
  void closed_phase();
  void move_phase(Phase p);
  void finish();
  std::uint64_t counter(const char* name) {
    return host_->metrics()->counter(name).value();
  }

 private:
  void publish(std::uint32_t i);
  void churn_before(std::uint32_t i);
  void initiate(std::uint32_t m, std::uint32_t slot);
  bool done(std::uint32_t i) const {
    return slots_.done_ns[i].load(std::memory_order_acquire) != 0;
  }

  const Workload& w_;
  const Inputs& in_;
  const Oracle& oracle_;
  const TcpOptions& opt_;
  TcpRun& out_;
  const tmps::Overlay overlay_;
  tmps::BrokerConfig cfg_;
  const std::size_t move_slots_;
  Slots slots_;
  std::vector<tmps::SubscriptionId> sub_ids_;
  std::vector<BrokerId> mover_at_;
  std::size_t next_churn_ = 0;
  std::unique_ptr<tmps::TcpTransport> host_;
};

bool Runner::setup() {
  for (std::uint32_t rep = 0; rep < opt_.setup_reps; ++rep) {
    host_.reset();  // tear-down of the previous set-up is not timed
    bool quiet = true;
    const std::int64_t t0 = now_ns();
    auto host = std::make_unique<tmps::TcpTransport>(overlay_, 0, cfg_);
    for (BrokerId b = 1; b <= w_.brokers; ++b) {
      host->engine(b).set_delivery_sink(
          [this](ClientId c, const tmps::Publication& p, tmps::SimTime) {
            slots_.on_delivery(c, p);
          });
      host->engine(b).set_move_callback(
          [this](const tmps::MovementRecord& rec) { slots_.on_move(rec); });
    }
    if (!host->start()) {
      std::fprintf(stderr, "e2e_bench: TCP host failed to start\n");
      return false;
    }
    host->run_on(w_.publisher_at, [&](MobilityEngine& e, Outputs& out) {
      e.connect_client(in_.publisher);
      e.advertise(in_.publisher, tmps::full_space_advertisement(), out);
    });
    quiet = wait_quiet(*host, w_.brokers) && quiet;
    for (std::uint32_t s = 0; s < in_.subs.size(); ++s) {
      const SubSpec& spec = in_.subs[s];
      const tmps::Filter f = filter_of(spec, spec.iv);
      std::int64_t t1 = 0, t2 = 0;
      host->run_on(spec.home, [&](MobilityEngine& e, Outputs& out) {
        e.connect_client(spec.client);
        t1 = now_ns();
        sub_ids_[s] = e.subscribe(spec.client, f, out);
        t2 = now_ns();
      });
      if (opt_.traced) {
        out_.spans.add(Layer::kCoreSub, static_cast<std::uint8_t>(spec.home),
                       spec.client, t1, t2);
      }
    }
    quiet = wait_quiet(*host, w_.brokers) && quiet;
    out_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    out_.stalled = out_.stalled || !quiet;
    host->drain();
    host_ = std::move(host);
  }
  for (std::uint32_t m = 0; m < in_.movers(); ++m) {
    mover_at_[m] = in_.subs[in_.stationary + m].home;
  }
  return true;
}

void Runner::churn_before(std::uint32_t i) {
  while (next_churn_ < in_.churn.size() &&
         in_.churn[next_churn_].before_pub <= i) {
    const ChurnOp& op = in_.churn[next_churn_++];
    const SubSpec& spec = in_.subs[op.sub];
    const tmps::Filter f = filter_of(spec, op.iv);
    std::int64_t t1 = 0, t2 = 0;
    host_->run_on(spec.home, [&](MobilityEngine& e, Outputs& out) {
      t1 = now_ns();
      e.unsubscribe(spec.client, sub_ids_[op.sub], out);
      sub_ids_[op.sub] = e.subscribe(spec.client, f, out);
      t2 = now_ns();
    });
    if (opt_.traced) {
      out_.spans.add(Layer::kCoreSub, static_cast<std::uint8_t>(spec.home),
                     spec.client, t1, t2);
    }
  }
}

void Runner::publish(std::uint32_t i) {
  churn_before(i);
  tmps::Publication pub = publication_of(in_, i);
  std::int64_t t1 = 0, t2 = 0;
  out_.start_ns[i] = now_ns();
  host_->run_on(w_.publisher_at, [&](MobilityEngine& e, Outputs& out) {
    if (opt_.traced) t1 = now_ns();
    e.publish(in_.publisher, std::move(pub), out);
    if (opt_.traced) t2 = now_ns();
  });
  if (opt_.traced) {
    const auto b = static_cast<std::uint8_t>(w_.publisher_at);
    out_.spans.add(Layer::kCorePublish, b, kPubSeqBase + i, t1, t2);
    out_.spans.add(Layer::kTransportDispatch, b, kPubSeqBase + i, t2,
                   now_ns());
  }
}

void Runner::open_phase() {
  const std::uint32_t b = in_.phase_begin[kOpen];
  const std::uint32_t e = in_.phase_begin[kOpen + 1];
  if (b == e) return;
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::uint32_t i = b; i < e; ++i) {
    out_.due_ns[i] = t0 + std::llround(in_.pubs[i].due_s * 1e9);
    wait_until(out_.due_ns[i]);
    publish(i);
  }
  out_.phase_s[kOpen] = static_cast<double>(now_ns() - t0) * 1e-9;
}

void Runner::closed_phase() {
  const std::uint32_t b = in_.phase_begin[kClosed];
  const std::uint32_t e = in_.phase_begin[kClosed + 1];
  if (b == e) return;
  // Broker-thread CPU (process CPU minus the generator thread's) at every
  // rate_window-th publication issued.
  const auto broker_cpu_s = [] {
    return cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_s(CLOCK_THREAD_CPUTIME_ID);
  };
  std::vector<std::pair<std::uint32_t, double>> marks = {{0, broker_cpu_s()}};
  const std::int64_t t0 = now_ns();
  std::int64_t last_progress = t0;
  std::vector<std::uint32_t> outstanding;
  std::uint32_t next = b;
  while (next < e || !outstanding.empty()) {
    bool progress = false;
    for (std::size_t k = 0; k < outstanding.size();) {
      if (done(outstanding[k])) {
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
        progress = true;
      } else {
        ++k;
      }
    }
    while (outstanding.size() < w_.closed_outstanding && next < e) {
      publish(next);
      if (oracle_.required(next) > 0) outstanding.push_back(next);
      ++next;
      progress = true;
      if ((next - b) % w_.rate_window == 0) {
        marks.emplace_back(next - b, broker_cpu_s());
      }
    }
    const std::int64_t now = now_ns();
    if (progress) {
      last_progress = now;
    } else if (now - last_progress > kStallNs) {
      out_.stalled = true;
      break;
    } else {
      // Refill as soon as a slot frees: a sleeping generator would make
      // its own wake-up latency the closed-loop bottleneck.
      std::this_thread::yield();
    }
  }
  out_.phase_s[kClosed] = static_cast<double>(now_ns() - t0) * 1e-9;
  // The tail after the last full window, with the wait for the last
  // completions, joins that window.
  const std::pair<std::uint32_t, double> end(e - b, broker_cpu_s());
  if (marks.size() > 1) {
    marks.back() = end;
  } else {
    marks.push_back(end);
  }
  for (std::size_t k = 1; k < marks.size(); ++k) {
    out_.closed_cpu_us.push_back((marks[k].second - marks[k - 1].second) *
                                 1e6 / (marks[k].first - marks[k - 1].first));
  }
}

void Runner::initiate(std::uint32_t m, std::uint32_t slot) {
  const ClientId client = in_.subs[in_.stationary + m].client;
  const BrokerId from = mover_at_[m];
  const BrokerId to = from == w_.mover_a ? w_.mover_b : w_.mover_a;
  slots_.cur_move[m].store(slot, std::memory_order_release);
  tmps::MoveStart started;
  std::int64_t t1 = 0, t2 = 0;
  out_.move_start_ns[slot] = now_ns();
  host_->run_on(from, [&](MobilityEngine& e, Outputs& out) {
    if (opt_.traced) t1 = now_ns();
    started = e.try_initiate_move(client, to, out);
    if (opt_.traced) t2 = now_ns();
  });
  if (opt_.traced) {
    out_.spans.add(Layer::kCoreInitiate, static_cast<std::uint8_t>(from),
                   started.txn, t1, t2);
  }
  if (!started.started()) {
    slots_.moves[slot].state.store(3, std::memory_order_relaxed);
  }
}

void Runner::move_phase(Phase p) {
  const std::uint32_t movers = in_.movers();
  const std::uint32_t per = p == kPaced ? in_.paced_moves_per_mover
                                        : in_.unpaced_moves_per_mover;
  const std::uint32_t slot_base = p == kPaced ? 0 : out_.paced_slots;
  const std::uint32_t b = in_.phase_begin[p], e = in_.phase_begin[p + 1];
  const bool paced = p == kPaced;
  const std::int64_t gap = std::llround(w_.move_gap_s * 1e9);
  const std::int64_t period = std::llround(w_.move_period_s * 1e9);
  if (per == 0 && b == e) return;

  struct Mover {
    std::uint32_t issued = 0;
    bool in_flight = false;
    std::int64_t due = 0;
  };
  const std::int64_t t0 = now_ns() + 1'000'000;
  // Paced: mover m's k-th move is due at its timetable slot, staggered
  // evenly across the period, and never sooner than `gap` after its last
  // commit. Without the timetable the movers drift into clusters and the
  // latency measures how they happened to bunch up.
  const auto slot_due = [&](std::uint32_t m, std::uint32_t k) {
    return t0 + period * k + period * m / movers;
  };
  std::vector<Mover> ms(per == 0 ? 0 : movers);
  for (std::uint32_t m = 0; m < ms.size(); ++m) {
    ms[m].due = paced ? slot_due(m, 0) : t0;
  }
  std::uint32_t next_pub = b;
  std::int64_t last_progress = t0;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  for (;;) {
    std::int64_t now = now_ns();
    bool progress = false, busy = false, finished = next_pub >= e;
    std::int64_t next_event = kNever;
    for (std::uint32_t m = 0; m < ms.size(); ++m) {
      Mover& mv = ms[m];
      if (mv.in_flight) {
        MoveSlot& s = slots_.moves[slot_base + m * per + mv.issued - 1];
        const std::uint8_t st = s.state.load(std::memory_order_acquire);
        if (st == 0) {
          busy = true;
          finished = false;
          continue;
        }
        mv.in_flight = false;
        progress = true;
        if (st == 1) {
          mover_at_[m] =
              mover_at_[m] == w_.mover_a ? w_.mover_b : w_.mover_a;
        }
        const std::int64_t end = s.end_ns.load(std::memory_order_relaxed);
        mv.due = paced ? std::max(end + gap, slot_due(m, mv.issued)) : now;
      }
      if (mv.issued == per) continue;
      finished = false;
      if (mv.due <= now) {
        const std::uint32_t next_slot = slot_base + m * per + mv.issued;
        ++mv.issued;
        initiate(m, next_slot);
        if (slots_.moves[next_slot].state.load(std::memory_order_relaxed) ==
            3) {
          mv.due = now + gap;  // refused: retry the next move after a gap
        } else {
          mv.in_flight = true;
          busy = true;
        }
        progress = true;
        now = now_ns();
      }
      if (!mv.in_flight) next_event = std::min(next_event, mv.due);
    }
    while (next_pub < e) {
      const std::int64_t due =
          t0 + std::llround(in_.pubs[next_pub].due_s * 1e9);
      if (due > now) {
        next_event = std::min(next_event, due);
        break;
      }
      out_.due_ns[next_pub] = due;
      publish(next_pub++);
      progress = true;
      now = now_ns();
    }
    if (finished && next_pub >= e) break;
    if (progress) {
      last_progress = now;
      continue;
    }
    if (now - last_progress > kStallNs) {
      out_.stalled = true;
      break;
    }
    // Unpaced movers go again as soon as a commit is seen, so that phase
    // polls without sleeping; the paced phase only needs commits before
    // their gap runs out.
    if (busy && !paced) {
      std::this_thread::yield();
      continue;
    }
    wait_until(busy ? std::min(next_event, now + kPacedPollNs) : next_event);
  }
  out_.phase_s[p] = static_cast<double>(now_ns() - t0) * 1e-9;
}

void Runner::finish() {
  host_->drain();
  out_.frames_sent = counter("tcp_frames_sent_total");
  out_.send_failures = counter("tcp_send_failures_total");
  out_.decode_failures = host_->decode_failures();
  host_->stop();  // joins the reader threads: the slots are final

  const std::uint32_t slots = oracle_.slots();
  out_.counts.resize(slots);
  out_.first_ns.resize(slots);
  for (std::uint32_t s = 0; s < slots; ++s) {
    out_.counts[s] = slots_.count[s].load(std::memory_order_relaxed);
    out_.first_ns[s] = slots_.first_ns[s].load(std::memory_order_relaxed);
  }
  out_.done_ns.resize(oracle_.pubs());
  out_.unexpected = slots_.stray.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < oracle_.pubs(); ++i) {
    out_.done_ns[i] = slots_.done_ns[i].load(std::memory_order_relaxed);
    out_.unexpected += slots_.unexpected[i].load(std::memory_order_relaxed);
  }
  out_.move_end_ns.resize(move_slots_);
  out_.move_state.resize(move_slots_);
  for (std::size_t k = 0; k < move_slots_; ++k) {
    const MoveSlot& s = slots_.moves[k];
    out_.move_end_ns[k] = s.end_ns.load(std::memory_order_relaxed);
    out_.move_state[k] = s.state.load(std::memory_order_relaxed);
    if (out_.move_state[k] == 1) {
      out_.msgs_per_move.push_back(host_->stats().messages_for_cause(
          s.txn.load(std::memory_order_relaxed)));
    }
  }
  host_.reset();
}

}  // namespace

bool run_tcp(const Workload& w, const Inputs& in, const Oracle& oracle,
             const TcpOptions& opt, TcpRun& out) {
  Runner r(w, in, oracle, opt, out);
  if (!r.setup()) return false;
  // Frames of the publish phases only, not of the moves between them.
  const auto publish_phase = [&](void (Runner::*phase)()) {
    const std::uint64_t frames0 = r.counter("tcp_frames_sent_total");
    const std::uint64_t bytes0 = r.counter("tcp_bytes_sent_total");
    (r.*phase)();
    out.pub_frames += r.counter("tcp_frames_sent_total") - frames0;
    out.pub_bytes += r.counter("tcp_bytes_sent_total") - bytes0;
  };
  publish_phase(&Runner::open_phase);
  r.move_phase(kPaced);
  r.move_phase(kUnpaced);
  publish_phase(&Runner::closed_phase);
  r.finish();
  return true;
}

}  // namespace perfbench
