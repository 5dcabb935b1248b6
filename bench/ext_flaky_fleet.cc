// Extension: flaky edge-fleet soak for the session layer (src/session).
//
// A fleet of edge clients on the paper's 14-broker overlay churns through
// Zipf-distributed connect/disconnect cycles while a stationary publisher
// streams matching publications. Each dropped link either resumes at the
// home broker, resumes at a different broker (connectivity-triggered
// mobility: the session moves), or — for two scripted laggards — outlives
// the grace window, firing the registered last-will and leaving a tombstone
// for the sweeps to prune.
//
// Run A ("sessions") exercises the session layer; run B ("cold") replays
// the identical churn with no sessions: a vanished client's stub keeps
// routing into the void and every reappearance is a cold re-subscribe under
// a fresh identity. Gates, sessions run: zero duplicate deliveries; every
// matched publication for the regular fleet is either delivered or present
// in a drop ledger (delivered + dropped == expected, cross-checked against
// the tmps_session_dropped_total counters); both last-wills fire; after a
// quiet tail longer than twice the grace window no broker holds a tombstone
// and the live-session census equals the fleet. Negative control, cold run:
// unattributed losses and abandoned stubs must remain — and the sessions
// run must beat it on delivery locality (fraction of matched publications
// that reach the client at its current attachment).
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "pubsub/workload.h"
#include "session/session_manager.h"
#include "sim/network.h"

using namespace tmps;
using namespace tmps::bench;
using session::SessionManager;
using session::SessionState;
using session::SessionToken;

namespace {

constexpr ClientId kPublisher = 9000;
constexpr BrokerId kPubBroker = 14;
constexpr int kRegular = 20;
constexpr int kLapsing = 2;  // scripted grace-window laggards with wills
constexpr double kGrace = 6.0;
constexpr double kTail = 20.0;  // quiet tail, > 2 * kGrace

ClientId regular_id(int k) { return 100 + k; }      // k in [0, kRegular)
ClientId lapsing_id(int k) { return 500 + k; }      // k in [0, kLapsing)

struct ChurnEvent {
  double at = 0;
  ClientId client = kNoClient;
  bool disconnect = false;  // else reattach
  BrokerId to = kNoBroker;  // reattach destination
};

/// Deterministic LCG so both runs replay the identical churn tape.
struct Lcg {
  std::uint64_t x;
  explicit Lcg(std::uint64_t seed) : x(seed) {}
  std::uint64_t next() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  }
  double unit() { return static_cast<double>(next() % 100000) / 100000.0; }
};

/// Zipf-weighted pick over ranks 0..n-1 (weight 1/(rank+1)): a few clients
/// flap constantly, the long tail barely at all.
int zipf_pick(Lcg& rng, int n) {
  double total = 0;
  for (int r = 0; r < n; ++r) total += 1.0 / (r + 1);
  double target = rng.unit() * total;
  for (int r = 0; r < n; ++r) {
    target -= 1.0 / (r + 1);
    if (target <= 0) return r;
  }
  return n - 1;
}

/// Paired disconnect/reattach tape for the regular fleet: every detachment
/// reattaches within the grace window, at a Zipf-chosen broker (biased walk
/// toward the publisher's side of the overlay for half the moves).
std::vector<ChurnEvent> build_tape(double churn_until, std::uint64_t seed) {
  Lcg rng(seed);
  std::vector<ChurnEvent> tape;
  std::vector<double> busy_until(kRegular, 0.0);
  for (double t = 12.0; t < churn_until; t += 1.5) {
    const int k = zipf_pick(rng, kRegular);
    if (busy_until[k] > t) continue;
    const double back = t + 1.0 + rng.unit() * (kGrace - 2.5);
    BrokerId dest;
    if (rng.unit() < 0.5) {
      // Move toward the publisher's cluster (brokers 12..13 side).
      dest = static_cast<BrokerId>(9 + rng.next() % 5);  // 9..13
    } else {
      dest = static_cast<BrokerId>(1 + rng.next() % 13);  // anywhere but 14
    }
    tape.push_back({t, regular_id(k), true, kNoBroker});
    tape.push_back({back, regular_id(k), false, dest});
    // Cooldown: let movement adoption settle before this client flaps again.
    busy_until[k] = back + 8.0;
  }
  return tape;
}

struct FleetResult {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;    // unique matched pubs at the attachment
  std::uint64_t duplicates = 0;
  std::uint64_t dropped_ledger = 0;  // regular-fleet drop-log entries (A)
  std::uint64_t dropped_ledger_total = 0;  // drop-log entries, every client
  std::uint64_t dropped_counters = 0;      // tmps_session_dropped_total sum
  std::uint64_t unattributed = 0;       // losses with no ledger entry
  std::uint64_t moves = 0;              // resume-became-movement count
  std::uint64_t adoptions = 0;
  std::uint64_t expired = 0;
  std::uint64_t wills_fired = 0;
  std::uint64_t will_deliveries = 0;
  std::uint64_t disconnects = 0;
  std::size_t residual_tombstones = 0;
  std::size_t residual_stale_stubs = 0;
  std::size_t live_sessions = 0;
  double locality = 0;       // delivered / expected over the regular fleet
  double mean_distance = 0;  // publisher->delivery broker overlay hops
  bool fleet_all_active = false;
};

/// One soak over the shared churn tape. `with_sessions` selects run A
/// (session layer drives disconnected operation and mobility) or run B
/// (cold re-subscribe under a fresh identity on every reappearance).
FleetResult run_one(bool with_sessions, double duration,
                    const std::vector<ChurnEvent>& tape) {
  Overlay overlay = Overlay::paper_default();
  // Covering quenching is unsound when subscriptions move (a quenched
  // subscription loses its path when its coverer departs) — mobility
  // deployments run with it off, as do the Scenario-based soaks.
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  bc.session.enabled = with_sessions;
  bc.session.heartbeat_interval = 0;  // the tape, not beacons, drives liveness
  bc.session.grace = kGrace;
  bc.session.buffer_max_count = 5;  // small enough that hot flappers overflow
  bc.session.tick_interval = 0.5;
  SimNetwork net(overlay, bc);

  struct Delivery {
    BrokerId broker;
    ClientId client;
    PublicationId pub;
    double at;
  };
  std::vector<Delivery> deliveries;
  // Cold run: the sim-time window each alias identity was the client's live
  // ear. A delivery only counts if it landed inside its alias's window.
  std::map<ClientId, std::pair<double, double>> alias_window;

  // Bench-side fleet ledger. In run B `alias` is the cold identity a
  // logical client currently subscribes under; in run A it equals the id.
  struct Edge {
    BrokerId at = kNoBroker;
    bool online = true;
    SessionToken token = session::kNoToken;
    ClientId alias = kNoClient;
    int generation = 0;
  };
  std::map<ClientId, Edge> fleet;

  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    net.engine(b).set_delivery_sink(
        [&deliveries, b](ClientId c, const Publication& p, SimTime t) {
          deliveries.push_back({b, c, p.id(), t});
        });
    if (SessionManager* mgr = net.sessions(b)) {
      // Acks reach the bench the way they reach a real edge device: tokens
      // re-mint on movement adoption, so the tape always resumes with the
      // latest one.
      mgr->set_client_channel([&fleet](ClientId c, const Message& m) {
        if (const auto* a = std::get_if<SessionAckMsg>(&m.payload)) {
          auto it = fleet.find(c);
          if (it != fleet.end() && a->token != session::kNoToken) {
            it->second.token = a->token;
          }
        }
        return true;
      });
    }
  }
  auto mgr = [&](BrokerId b) -> SessionManager& { return *net.sessions(b); };

  // --- initial placement ---------------------------------------------------
  net.run_on(kPubBroker, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  const Filter sub_filter = workload_filter(WorkloadKind::Covered, 1);
  auto place = [&](ClientId c, BrokerId b) {
    fleet[c] = {b, true, session::kNoToken, c, 0};
    alias_window[c] = {0.0, 1e18};
    net.run_on(b, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(c);
      e.subscribe(c, sub_filter, out);
    });
    if (with_sessions) {
      std::optional<Publication> will;
      if (c >= lapsing_id(0)) {
        // The laggards advertise so their last-will publications can route.
        net.run_on(b, [&](MobilityEngine& e, Broker::Outputs& out) {
          e.advertise(c, full_space_advertisement(), out);
        });
        will = make_publication({0, 0}, 100, 0);
      }
      fleet[c].token = mgr(b).open(c, will);
    }
  };
  for (int k = 0; k < kRegular; ++k) {
    place(regular_id(k), static_cast<BrokerId>(1 + k % 13));
  }
  place(lapsing_id(0), 1);
  place(lapsing_id(1), 2);

  if (with_sessions) {
    for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
      mgr(b).start(bc.session.tick_interval, duration);
    }
  }

  // --- publication stream --------------------------------------------------
  std::uint64_t published = 0;
  for (double t = 5.0; t < duration - 2.0; t += 0.5) {
    const std::uint32_t seq = ++published;
    net.events().schedule_at(t, [&net, seq] {
      net.run_on(kPubBroker, [seq](MobilityEngine& e, Broker::Outputs& out) {
        e.publish(kPublisher, make_publication({kPublisher, seq}, 100, 0),
                  out);
      });
    });
  }

  // --- the churn tape ------------------------------------------------------
  std::uint64_t disconnects = 0;
  auto do_disconnect = [&](ClientId c, double now) {
    Edge& e = fleet[c];
    if (!e.online) return;
    e.online = false;
    ++disconnects;
    if (with_sessions) {
      mgr(e.at).disconnect(c);
    } else {
      // Cold run: the broker never learns; the stub keeps routing into the
      // void until the client re-subscribes as somebody else.
      alias_window[e.alias].second = now;
    }
  };
  auto cold_alias = [&](ClientId c, BrokerId to, double now) {
    Edge& e = fleet[c];
    e.at = to;
    e.generation++;
    e.alias = c + static_cast<ClientId>(100000) * e.generation;
    alias_window[e.alias] = {now, 1e18};
    net.run_on(to, [&](MobilityEngine& eng2, Broker::Outputs& out) {
      eng2.connect_client(e.alias);
      eng2.subscribe(e.alias, sub_filter, out);
    });
  };
  auto do_reattach = [&](ClientId c, BrokerId to, double now) {
    Edge& e = fleet[c];
    if (e.online) return;
    e.online = true;
    if (with_sessions) {
      e.at = to;
      net.run_on(to, [&](MobilityEngine&, Broker::Outputs& out) {
        mgr(to).reattach(c, e.token, out);
      });
    } else {
      cold_alias(c, to, now);
    }
  };
  for (const ChurnEvent& ev : tape) {
    net.events().schedule_at(ev.at, [&, ev] {
      if (ev.disconnect) {
        do_disconnect(ev.client, ev.at);
      } else {
        do_reattach(ev.client, ev.to, ev.at);
      }
    });
  }
  // The scripted laggards: vanish, outlive the grace window (their sessions
  // expire and the wills fire), then come back cold and re-open.
  for (int k = 0; k < kLapsing; ++k) {
    const ClientId c = lapsing_id(k);
    const double gone = 30.0 + 25.0 * k;
    const double back = gone + kGrace + 6.0;
    net.events().schedule_at(gone, [&, c, gone] { do_disconnect(c, gone); });
    net.events().schedule_at(back, [&, c, k, back] {
      Edge& e = fleet[c];
      e.online = true;
      const BrokerId to = static_cast<BrokerId>(5 + k);
      if (with_sessions) {
        e.at = to;
        net.run_on(to, [&](MobilityEngine& eng2, Broker::Outputs& out) {
          eng2.connect_client(c);
          e.token = mgr(to).open(c);
          (void)out;
        });
        net.run_on(to, [&](MobilityEngine& eng2, Broker::Outputs& out) {
          eng2.subscribe(c, sub_filter, out);
        });
      } else {
        cold_alias(c, to, back);
      }
    });
  }

  net.events().schedule_at(duration, [] {});
  net.run();

  // --- accounting ----------------------------------------------------------
  FleetResult r;
  r.published = published;
  r.disconnects = disconnects;

  // Unique matched deliveries per logical regular client, plus duplicates.
  std::map<ClientId, std::set<std::uint32_t>> got;     // publisher pubs
  std::map<ClientId, ClientId> alias_to_logical;
  for (int k = 0; k < kRegular; ++k) {
    const ClientId c = regular_id(k);
    for (int g = 0; g <= fleet[c].generation; ++g) {
      alias_to_logical[c + static_cast<ClientId>(100000) * g] = c;
    }
  }
  double distance_sum = 0;
  std::uint64_t distance_n = 0;
  std::set<std::pair<ClientId, std::uint64_t>> seen;
  for (const auto& d : deliveries) {
    const auto logical = alias_to_logical.find(d.client);
    if (d.pub.client == kPublisher) {
      const std::uint64_t key = d.pub.seq;
      if (logical != alias_to_logical.end()) {
        // Cold aliases only count while they are the client's live identity.
        if (!with_sessions) {
          const auto w = alias_window.find(d.client);
          if (w == alias_window.end() || d.at < w->second.first ||
              d.at >= w->second.second) {
            continue;
          }
        }
        if (!seen.insert({logical->second, key}).second) {
          ++r.duplicates;
          continue;
        }
        got[logical->second].insert(d.pub.seq);
        distance_sum += overlay.distance(kPubBroker, d.broker);
        ++distance_n;
      }
    } else if (d.pub.client >= lapsing_id(0) &&
               d.pub.client < lapsing_id(kLapsing)) {
      ++r.will_deliveries;
    }
  }
  r.mean_distance = distance_n ? distance_sum / distance_n : 0;

  std::uint64_t expected = 0;
  for (int k = 0; k < kRegular; ++k) {
    expected += published;
    r.delivered += got[regular_id(k)].size();
  }

  std::set<std::pair<ClientId, std::uint64_t>> ledgered;
  if (with_sessions) {
    for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
      const SessionManager* m = net.sessions(b);
      for (const auto& d : m->drop_log()) {
        ++r.dropped_ledger_total;
        if (d.client >= regular_id(0) && d.client < regular_id(kRegular)) {
          ++r.dropped_ledger;
          if (d.pub.client == kPublisher) {
            ledgered.insert({d.client, d.pub.seq});
          }
        }
      }
      for (const char* reason : {"overflow", "expiry"}) {
        r.dropped_counters +=
            net.metrics()
                ->counter("tmps_session_dropped_total",
                          {{"broker", std::to_string(b)}, {"reason", reason}})
                .value();
      }
      r.moves += m->stats().resumed_move;
      r.adoptions += m->stats().adopted;
      r.expired += m->stats().expired;
      r.wills_fired += m->stats().wills_fired;
      r.residual_tombstones += m->expired_sessions();
      r.live_sessions += m->live_sessions();
    }
    // Exact loss attribution, per publication: a matched publication the
    // client never received must sit in some broker's drop ledger. (A
    // ledger entry for a pub that also arrived is fine — the stale buffered
    // copy of a delivery the movement machinery completed was discarded.)
    for (int k = 0; k < kRegular; ++k) {
      const ClientId c = regular_id(k);
      for (std::uint64_t seq = 1; seq <= published; ++seq) {
        if (!got[c].count(static_cast<std::uint32_t>(seq)) &&
            !ledgered.count({c, seq})) {
          ++r.unattributed;
        }
      }
    }
    r.fleet_all_active = true;
    for (const auto& [c, e] : fleet) {
      if (mgr(e.at).state_of(c) != SessionState::Active) {
        r.fleet_all_active = false;
      }
    }
  } else {
    r.unattributed = expected - r.delivered;
    for (const auto& [c, e] : fleet) r.residual_stale_stubs += e.generation;
  }
  r.locality = expected ? static_cast<double>(r.delivered) / expected : 0;
  return r;
}

}  // namespace

int main() {
  print_header("Extension — flaky edge-fleet session soak",
               "Zipf connect/disconnect churn vs. the src/session layer");

  const double duration = full_run() ? 600.0 : 140.0;
  const std::vector<ChurnEvent> tape = build_tape(duration - kTail, 42);

  BenchJson json = json_out("ext_flaky_fleet");
  json.config()
      .field("brokers", 14)
      .field("fleet", kRegular + kLapsing)
      .field("grace_s", kGrace)
      .field("tail_s", kTail)
      .field("churn_events", tape.size())
      .field("duration_s", duration);

  std::printf("%10s | %6s %7s %6s | %5s %6s %7s | %6s %6s | %8s %6s\n",
              "run", "pubs", "dlv", "drop", "dups", "unattr", "moves",
              "wills", "resid", "locality", "dist");

  std::map<bool, FleetResult> results;
  for (const bool sessions : {true, false}) {
    const FleetResult r = run_one(sessions, duration, tape);
    results[sessions] = r;
    const char* label = sessions ? "sessions" : "cold";
    std::printf(
        "%10s | %6llu %7llu %6llu | %5llu %6llu %7llu | %6llu %6zu | %8.4f "
        "%6.2f\n",
        label, static_cast<unsigned long long>(r.published),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.dropped_ledger),
        static_cast<unsigned long long>(r.duplicates),
        static_cast<unsigned long long>(r.unattributed),
        static_cast<unsigned long long>(r.moves),
        static_cast<unsigned long long>(r.wills_fired),
        r.residual_tombstones + r.residual_stale_stubs, r.locality,
        r.mean_distance);
    json.add_row()
        .field("run", label)
        .field("published", r.published)
        .field("delivered", r.delivered)
        .field("duplicates", r.duplicates)
        .field("dropped_ledger", r.dropped_ledger)
        .field("dropped_ledger_total", r.dropped_ledger_total)
        .field("dropped_counters", r.dropped_counters)
        .field("unattributed", r.unattributed)
        .field("disconnects", r.disconnects)
        .field("moves", r.moves)
        .field("adoptions", r.adoptions)
        .field("expired", r.expired)
        .field("wills_fired", r.wills_fired)
        .field("will_deliveries", r.will_deliveries)
        .field("residual_tombstones", r.residual_tombstones)
        .field("residual_stale_stubs", r.residual_stale_stubs)
        .field("live_sessions", r.live_sessions)
        .field("locality", r.locality)
        .field("mean_distance_hops", r.mean_distance);
  }

  const FleetResult& a = results.at(true);
  const FleetResult& b = results.at(false);
  bool ok = true;

  if (a.moves == 0 || a.adoptions == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: churn produced no connectivity-triggered "
                 "movements (moves=%llu adoptions=%llu)\n",
                 static_cast<unsigned long long>(a.moves),
                 static_cast<unsigned long long>(a.adoptions));
    ok = false;
  }
  if (a.duplicates != 0) {
    std::fprintf(stderr, "GATE FAILED: %llu duplicate deliveries\n",
                 static_cast<unsigned long long>(a.duplicates));
    ok = false;
  }
  if (a.unattributed != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu losses with no drop-ledger entry "
                 "(delivered %llu + dropped %llu != expected)\n",
                 static_cast<unsigned long long>(a.unattributed),
                 static_cast<unsigned long long>(a.delivered),
                 static_cast<unsigned long long>(a.dropped_ledger));
    ok = false;
  }
  if (a.dropped_counters != a.dropped_ledger_total) {
    std::fprintf(stderr,
                 "GATE FAILED: drop ledger (%llu) and "
                 "tmps_session_dropped_total (%llu) disagree\n",
                 static_cast<unsigned long long>(a.dropped_ledger_total),
                 static_cast<unsigned long long>(a.dropped_counters));
    ok = false;
  }
  if (a.wills_fired != kLapsing) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu wills fired, expected %d laggard "
                 "expiries\n",
                 static_cast<unsigned long long>(a.wills_fired), kLapsing);
    ok = false;
  }
  if (a.will_deliveries == 0) {
    std::fprintf(stderr, "GATE FAILED: no last-will reached the fleet\n");
    ok = false;
  }
  if (a.residual_tombstones != 0 || !a.fleet_all_active ||
      a.live_sessions != kRegular + kLapsing) {
    std::fprintf(stderr,
                 "GATE FAILED: residual state after the quiet tail "
                 "(tombstones=%zu live=%zu all_active=%d)\n",
                 a.residual_tombstones, a.live_sessions,
                 a.fleet_all_active ? 1 : 0);
    ok = false;
  }
  if (a.locality <= b.locality) {
    std::fprintf(stderr,
                 "GATE FAILED: session resume (%.4f) does not beat cold "
                 "re-subscribe (%.4f) on delivery locality\n",
                 a.locality, b.locality);
    ok = false;
  }
  // Negative control: without sessions the same tape must visibly leak.
  if (b.unattributed == 0 || b.residual_stale_stubs == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: cold run shows no damage — the churn tape is "
                 "too weak to validate the session layer\n");
    ok = false;
  }

  std::printf("\n%s: %llu disconnects, %llu session moves; sessions "
              "delivered %.2f%% vs cold %.2f%%; cold leaked %llu losses and "
              "%zu stale stubs\n",
              ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(a.disconnects),
              static_cast<unsigned long long>(a.moves), 100.0 * a.locality,
              100.0 * b.locality,
              static_cast<unsigned long long>(b.unattributed),
              b.residual_stale_stubs);
  return ok ? 0 : 1;
}
