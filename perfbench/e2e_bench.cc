// End-to-end benchmark: one workload per process.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 runs the workload on the TCP host with no spans and reports the
// end-to-end metrics. --trace 1 runs it untraced and traced (origin spans
// from the benchmark's own code) and replays the same inputs on one thread
// (replay.h) to attribute time to the transport, pubsub, broker, routing
// and core layers; it reports the per-layer metrics and writes every span
// to <out-dir>/spans_<workload>.jsonl. Both check every delivery and move
// against the oracle after the host stopped. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "replay.h"
#include "spans.h"
#include "tcp_run.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Publications this many positions either side of a subscription
/// replacement may race it (a closed-loop window plus slack).
constexpr std::uint32_t kRaceWindow = 128;
/// Latencies, rates and CPU are taken per window of consecutive samples.
constexpr std::size_t kDlvWindow = 1000;
constexpr std::size_t kMoveWindow = 200;
/// Timed runs repeat the whole workload on this many fresh hosts (new
/// sockets and threads, so a new thread placement) and report the median
/// host: on a shared machine a host can sit in a fast or slow mode for its
/// whole life, and the median of three rarely does.
constexpr int kTimedReps = 3;
/// Set-ups per timed host; setup_s is taken over all of a run's.
constexpr std::uint32_t kSetupReps = 5;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;
  /// False for figures printed for the reader but left out of the JSON
  /// result (and so not gated).
  bool reported = true;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The q-quantile of each of the consecutive windows of `window` samples
/// (in time order; a short tail joins the last full window).
std::vector<double> per_window(const std::vector<double>& v,
                               std::size_t window, double q) {
  if (v.empty()) return {};
  if (v.size() < 2 * window) return {quantile(v, q)};
  std::vector<double> out;
  for (std::size_t a = 0; a < v.size(); a += window) {
    const std::size_t b = v.size() - (a + window) < window ? v.size()
                                                           : a + window;
    out.push_back(quantile({v.begin() + a, v.begin() + b}, q));
    if (b == v.size()) break;
  }
  return out;
}

/// Median over windows of each window's q-quantile.
double windowed_quantile(const std::vector<double>& v, std::size_t window,
                         double q) {
  return quantile(per_window(v, window, q), 0.5);
}

/// A host's latency or rate from its per-window values: the quartile on the
/// fast side (the lower for times, the upper for rates). Interference from
/// other tenants of a shared machine only ever slows a window down, in
/// bursts that can cover most of a run, so the faster windows show the
/// program's own speed; a quartile rather than the extreme keeps one lucky
/// window from setting the figure. CPU per publication takes the median
/// window instead: interference moves it either way (a slowed host batches
/// more frames per wake-up and spends less CPU on each).
double fast_quartile(const std::vector<double>& windows, bool rate) {
  return quantile(windows, rate ? 0.75 : 0.25);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Rates over consecutive windows of `window` sorted event times.
std::vector<double> window_rates(std::vector<std::int64_t> t,
                                 std::uint32_t window) {
  std::sort(t.begin(), t.end());
  if (t.size() < 2) return {};
  window = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(window,
                                 static_cast<std::uint32_t>(t.size() - 1)));
  std::vector<double> rates;
  for (std::size_t a = 0; a + window < t.size(); a += window) {
    const double span_s = static_cast<double>(t[a + window] - t[a]) * 1e-9;
    if (span_s > 0) rates.push_back(window / span_s);
  }
  return rates;
}

double rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Delivery latencies (ms) of scheduled publications (open-loop phase and
/// paced-phase background) to stationary subscribers, from due time to the
/// delivery sink; optionally the hop count of each.
std::vector<double> delivery_ms(const Workload& w, const Inputs& in,
                                const Oracle& o, const TcpRun& r,
                                std::vector<double>* hops = nullptr) {
  std::unordered_map<tmps::ClientId, tmps::BrokerId> home;
  if (hops) {
    for (const SubSpec& s : in.subs) home[s.client] = s.home;
  }
  std::vector<double> v;
  for (const Phase p : {kOpen, kPaced}) {
    for (std::uint32_t i = in.phase_begin[p]; i < in.phase_begin[p + 1]; ++i) {
      if (r.due_ns[i] == 0) continue;
      for (std::uint32_t s = o.begin(i); s < o.begin(i + 1); ++s) {
        const Oracle::Receiver& rc = o.slot(s);
        if (rc.mover || rc.maybe || r.counts[s] == 0) continue;
        v.push_back(static_cast<double>(r.first_ns[s] - r.due_ns[i]) * 1e-6);
        if (hops) {
          const tmps::BrokerId b = home[rc.client];
          hops->push_back(b > w.publisher_at ? b - w.publisher_at
                                             : w.publisher_at - b);
        }
      }
    }
  }
  return v;
}

/// Paced-phase move latencies (ms) in start order, committed moves only.
std::vector<double> move_ms(const TcpRun& r) {
  std::vector<std::pair<std::int64_t, double>> by_start;
  for (std::uint32_t k = 0; k < r.paced_slots; ++k) {
    if (r.move_state[k] == 1) {
      by_start.emplace_back(
          r.move_start_ns[k],
          static_cast<double>(r.move_end_ns[k] - r.move_start_ns[k]) * 1e-6);
    }
  }
  std::sort(by_start.begin(), by_start.end());
  std::vector<double> v;
  for (const auto& [start, ms] : by_start) v.push_back(ms);
  return v;
}

std::vector<double> generator_late_ms(const TcpRun& r) {
  std::vector<double> v;
  for (std::size_t i = 0; i < r.due_ns.size(); ++i) {
    if (r.due_ns[i] != 0 && r.start_ns[i] != 0) {
      v.push_back(static_cast<double>(r.start_ns[i] - r.due_ns[i]) * 1e-6);
    }
  }
  return v;
}

/// Failure accounting of one TCP run against the oracle.
struct Accounting {
  Oracle::Verdict verdict;
  std::uint64_t moves_initiated = 0;
  std::uint64_t moves_committed = 0;
  std::uint64_t moves_refused = 0;
  std::uint64_t moves_aborted = 0;  ///< aborted or never resolved
  std::uint64_t deliveries = 0;
  bool self_check = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Names the first few lost or duplicated deliveries on stderr.
void report_misses(const Inputs& in, const Oracle& o, const TcpRun& r) {
  int shown = 0;
  for (std::uint32_t i = 0; i < o.pubs() && shown < 5; ++i) {
    for (std::uint32_t s = o.begin(i); s < o.begin(i + 1); ++s) {
      const Oracle::Receiver& rc = o.slot(s);
      if ((rc.maybe || r.counts[s] != 0) && r.counts[s] <= 1) continue;
      std::fprintf(stderr,
                   "e2e_bench: publication %u (%s phase, g=%lld x=%lld) "
                   "reached client %llu%s %u times\n",
                   i, to_string(in.pubs[i].phase),
                   static_cast<long long>(in.pubs[i].g),
                   static_cast<long long>(in.pubs[i].x),
                   static_cast<unsigned long long>(rc.client),
                   rc.mover ? " (mover)" : "", r.counts[s]);
      if (++shown == 5) break;
    }
  }
}

Accounting account(const Inputs& in, const Oracle& o, const TcpRun& r) {
  Accounting a;
  a.verdict = o.verify(r.counts, r.unexpected);
  if (a.verdict.lost + a.verdict.duplicates > 0) report_misses(in, o, r);
  a.self_check = o.self_check(r.counts, r.unexpected);
  for (const std::uint32_t c : r.counts) a.deliveries += c;
  a.deliveries += r.unexpected;
  for (std::size_t k = 0; k < r.move_state.size(); ++k) {
    if (r.move_start_ns[k] == 0) continue;
    ++a.moves_initiated;
    switch (r.move_state[k]) {
      case 1: ++a.moves_committed; break;
      case 3: ++a.moves_refused; break;
      default: ++a.moves_aborted; break;
    }
  }
  // Every move slot the inputs asked for must have been tried.
  const std::uint64_t never_tried = r.move_state.size() - a.moves_initiated;
  a.attempted = a.verdict.required + r.move_state.size() + r.frames_sent;
  a.failed = a.verdict.failures() + a.moves_refused + a.moves_aborted +
             never_tried + r.decode_failures + r.send_failures +
             (r.stalled ? 1 : 0);
  return a;
}

void print_accounting(const char* label, const Accounting& a,
                      const TcpRun& r) {
  std::printf(
      "%s oracle: required %llu lost %llu duplicates %llu unexpected %llu "
      "maybe %llu (never delivered %llu); moves %llu committed %llu refused "
      "%llu aborted %llu; decode_failures %llu send_failures %llu%s; "
      "negative control %s\n",
      label, static_cast<unsigned long long>(a.verdict.required),
      static_cast<unsigned long long>(a.verdict.lost),
      static_cast<unsigned long long>(a.verdict.duplicates),
      static_cast<unsigned long long>(a.verdict.unexpected),
      static_cast<unsigned long long>(a.verdict.excluded),
      static_cast<unsigned long long>(a.verdict.maybe_missed),
      static_cast<unsigned long long>(a.moves_initiated),
      static_cast<unsigned long long>(a.moves_committed),
      static_cast<unsigned long long>(a.moves_refused),
      static_cast<unsigned long long>(a.moves_aborted),
      static_cast<unsigned long long>(r.decode_failures),
      static_cast<unsigned long long>(r.send_failures),
      r.stalled ? "; STALLED" : "",
      a.self_check ? "failed as designed" : "DID NOT FAIL");
}

/// The timed hosts' figures, one per host, and every set-up.
struct Hosts {
  int hosts = 0;
  std::size_t closed_pubs = 0, deliveries = 0, paced_moves = 0,
              unpaced_moves = 0;
  std::vector<double> setup_s, pub_rate, cpu_us_per_pub, dlv_p50, dlv_p90,
      move_rate, move_p50, move_p90;
};

void add_host(const Workload& w, const Inputs& in, const Oracle& o,
              const TcpRun& r, Hosts& h) {
  std::vector<std::int64_t> closed_done;
  for (std::uint32_t i = in.phase_begin[kClosed];
       i < in.phase_begin[kClosed + 1]; ++i) {
    if (r.done_ns[i] != 0) closed_done.push_back(r.done_ns[i]);
  }
  std::vector<std::int64_t> commits;
  for (std::uint32_t k = r.paced_slots; k < r.move_state.size(); ++k) {
    if (r.move_state[k] == 1) commits.push_back(r.move_end_ns[k]);
  }
  const std::vector<double> dlv = delivery_ms(w, in, o, r);
  const std::vector<double> mv = move_ms(r);
  ++h.hosts;
  h.closed_pubs += closed_done.size();
  h.deliveries += dlv.size();
  h.paced_moves += mv.size();
  h.unpaced_moves += commits.size();
  h.setup_s.insert(h.setup_s.end(), r.setup_s.begin(), r.setup_s.end());
  h.pub_rate.push_back(
      fast_quartile(window_rates(closed_done, w.rate_window), true));
  h.cpu_us_per_pub.push_back(quantile(r.closed_cpu_us, 0.5));
  h.dlv_p50.push_back(fast_quartile(per_window(dlv, kDlvWindow, 0.5), false));
  h.dlv_p90.push_back(fast_quartile(per_window(dlv, kDlvWindow, 0.9), false));
  h.move_rate.push_back(
      fast_quartile(window_rates(commits, w.move_window), true));
  h.move_p50.push_back(fast_quartile(per_window(mv, kMoveWindow, 0.5), false));
  h.move_p90.push_back(fast_quartile(per_window(mv, kMoveWindow, 0.9), false));
}

/// `rss` and `counts`: the first host's peak resident set and what it
/// issued (a later host's threads may take fresh malloc arenas, which would
/// make the process peak vary run to run).
std::vector<Metric> end_to_end(const Hosts& h, double rss,
                               const std::string& counts,
                               std::uint64_t attempted, std::uint64_t failed) {
  const auto med = [](const std::vector<double>& v) {
    return quantile(v, 0.5);
  };
  const std::string of_hosts = " of " + std::to_string(h.hosts) + " hosts";
  const auto samples = [&](std::size_t n, const char* what) {
    return std::to_string(n) + " " + what + of_hosts;
  };
  return {
      // The fast quartile too. TcpTransport::start() polls for its links
      // every 5 ms, so a set-up either starts in ~1 ms or sleeps 5 ms more;
      // on a small population the median of such a two-mode sample jumps
      // between the modes from run to run, the lower quartile far less.
      {"setup_s", "s", fast_quartile(h.setup_s, false),
       samples(h.setup_s.size(), "set-ups")},
      {"pub_rate", "pubs/s", med(h.pub_rate),
       samples(h.closed_pubs, "closed-loop pubs")},
      {"cpu_us_per_pub", "us", med(h.cpu_us_per_pub), "closed loop"},
      {"dlv_p50_ms", "ms", med(h.dlv_p50),
       samples(h.deliveries, "deliveries")},
      {"dlv_p90_ms", "ms", med(h.dlv_p90), "not gated", false},
      {"move_rate", "moves/s", med(h.move_rate),
       samples(h.unpaced_moves, "unpaced moves")},
      {"move_p50_ms", "ms", med(h.move_p50),
       samples(h.paced_moves, "paced moves")},
      {"move_p90_ms", "ms", med(h.move_p90), "not gated", false},
      {"rss_mb", "MB", rss, counts},
      {"fail_frac", "ratio",
       static_cast<double>(failed) / std::max<double>(1, attempted),
       "travels as failed/attempted", false},
  };
}

/// Per-layer metrics from the untraced run (`base`), the traced run's
/// origin spans (`traced`) and the single-thread replay (`rep`).
std::vector<Metric> per_layer(const Workload& w, const Inputs& in,
                              const Oracle& o, const TcpRun& base,
                              const TcpRun& traced, const ReplayResult& rep,
                              const Accounting& a) {
  constexpr auto kL = static_cast<std::size_t>(Layer::kCount);
  std::vector<std::vector<double>> tcp_us(kL), rep_ns(kL);
  for (const Span& s : traced.spans.spans()) {
    tcp_us[static_cast<std::size_t>(s.layer)].push_back(s.dur_ns * 1e-3);
  }
  struct PubAgg {
    double match_ns = 0, service_ns = 0;
    std::uint64_t matched = 0;
  };
  struct MoveAgg {
    double control_ns = 0, codec_ns = 0;
    std::uint32_t shipped = 0;
  };
  std::unordered_map<std::uint64_t, PubAgg> pubs;
  std::unordered_map<std::uint64_t, MoveAgg> moves;
  std::vector<double> transit_publish_ns, hop_ns, sub_ns;
  double span_ns = 0;
  // The replay matches each received publication right after the hop's
  // on_message; a transit hop's broker time is the pair's difference.
  const Span* transit_hop = nullptr;
  for (const Span& s : rep.spans.spans()) {
    span_ns += static_cast<double>(s.dur_ns);
    rep_ns[static_cast<std::size_t>(s.layer)].push_back(s.dur_ns);
    switch (s.layer) {
      case Layer::kRoutingMatch:
        pubs[s.key].match_ns += s.dur_ns;
        pubs[s.key].matched += s.aux;
        if (transit_hop && transit_hop->key == s.key &&
            transit_hop->broker == s.broker) {
          transit_publish_ns.push_back(transit_hop->dur_ns - s.dur_ns);
        }
        transit_hop = nullptr;
        break;
      case Layer::kCorePublish:
      case Layer::kEncodePub:
      case Layer::kDecodePub:
        pubs[s.key].service_ns += s.dur_ns;
        break;
      case Layer::kBrokerPublish:
        pubs[s.key].service_ns += s.dur_ns;
        hop_ns.push_back(s.dur_ns);
        transit_hop = s.aux == 1 ? &s : nullptr;
        break;
      case Layer::kBrokerSub:
        sub_ns.push_back(s.dur_ns);
        break;
      case Layer::kEncodeCtl:
        moves[s.key].codec_ns += s.dur_ns;
        moves[s.key].shipped = std::max(moves[s.key].shipped, s.aux);
        break;
      case Layer::kDecodeCtl:
        moves[s.key].codec_ns += s.dur_ns;
        break;
      case Layer::kCtlNegotiate:
      case Layer::kCtlApprove:
      case Layer::kCtlState:
      case Layer::kCtlAck:
        moves[s.key].control_ns += s.dur_ns;
        break;
      default:
        break;
    }
  }
  std::vector<double> match_us, matched, service_us, control_us, codec_us,
      shipped;
  for (const auto& [key, p] : pubs) {
    match_us.push_back(p.match_ns * 1e-3);
    matched.push_back(static_cast<double>(p.matched));
    service_us.push_back(p.service_ns * 1e-3);
  }
  for (const auto& [key, m] : moves) {
    if (key == tmps::kNoTxn) continue;
    control_us.push_back(m.control_ns * 1e-3);
    codec_us.push_back(m.codec_ns * 1e-3);
    shipped.push_back(m.shipped);
  }
  const auto med = [](const std::vector<double>& v) {
    return quantile(v, 0.5);
  };
  const auto layer_med_us = [&](Layer l) {
    return med(rep_ns[static_cast<std::size_t>(l)]) * 1e-3;
  };

  const double pubs_in_publish_phases =
      std::max<double>(1, in.phase_pubs(kOpen) + in.phase_pubs(kClosed));
  std::vector<double> hops;
  const std::vector<double> dlv = delivery_ms(w, in, o, traced, &hops);
  const double mean_hops = std::max(1.0, mean(hops));
  const double origin_us =
      med(tcp_us[static_cast<std::size_t>(Layer::kCorePublish)]) +
      med(tcp_us[static_cast<std::size_t>(Layer::kTransportDispatch)]);
  const double hop_service_us = layer_med_us(Layer::kDecodePub) +
                                mean(hop_ns) * 1e-3 +
                                layer_med_us(Layer::kEncodePub);
  std::vector<double> msgs(traced.msgs_per_move.begin(),
                           traced.msgs_per_move.end());
  const double msgs_per_move = mean(msgs);
  const double initiate_us =
      med(tcp_us[static_cast<std::size_t>(Layer::kCoreInitiate)]);
  const double move_p50_us =
      windowed_quantile(move_ms(traced), kMoveWindow, 0.5) * 1e3;
  const auto speed_bound_s = [](const TcpRun& r) {
    return r.phase_s[kClosed] + r.phase_s[kUnpaced];
  };
  const std::vector<double> base_dlv = delivery_ms(w, in, o, base);

  return {
      {"transport.dispatch_us", "us",
       med(tcp_us[static_cast<std::size_t>(Layer::kTransportDispatch)]),
       "origin encode + socket writes"},
      {"transport.frames_per_pub", "count",
       traced.pub_frames / pubs_in_publish_phases, ""},
      {"transport.bytes_per_pub", "bytes",
       traced.pub_bytes / pubs_in_publish_phases, ""},
      {"transport.hop_wait_us", "us",
       (windowed_quantile(dlv, kDlvWindow, 0.5) * 1e3 - origin_us -
        mean_hops * hop_service_us) /
           mean_hops,
       "derived: (dlv_p50 - origin - hops x replayed hop service) / hops"},
      {"transport.move_hop_wait_us", "us",
       (move_p50_us - initiate_us - mean(control_us) - mean(codec_us)) /
           std::max(1.0, msgs_per_move),
       "derived: (move_p50 - initiate - control - codec) / msgs"},
      {"pubsub.encode_ns", "ns", med(rep_ns[static_cast<std::size_t>(
                                     Layer::kEncodePub)]),
       "replay, per publish frame"},
      {"pubsub.decode_ns", "ns", med(rep_ns[static_cast<std::size_t>(
                                     Layer::kDecodePub)]),
       "replay, per publish frame"},
      {"pubsub.ctl_codec_us", "us", mean(codec_us),
       "replay, encode+decode per move"},
      {"broker.publish_us", "us", mean(transit_publish_ns) * 1e-3,
       "replay, transit hop minus its match"},
      {"broker.sub_us", "us", mean(sub_ns) * 1e-3, "replay, per message"},
      {"routing.match_us", "us", mean(match_us),
       "replay, summed over the path"},
      {"routing.matched_per_pub", "count", mean(matched),
       "summed over the path"},
      {"routing.match_share_pct", "%",
       100.0 * mean(match_us) / std::max(1e-9, mean(service_us)),
       "of replayed per-publication service"},
      {"core.publish_us", "us",
       med(tcp_us[static_cast<std::size_t>(Layer::kCorePublish)]), "origin"},
      {"core.sub_us", "us",
       med(tcp_us[static_cast<std::size_t>(Layer::kCoreSub)]),
       "set-up and churn"},
      {"core.initiate_us", "us", initiate_us, ""},
      {"core.control_us", "us", mean(control_us), "replay, per move"},
      {"core.control.negotiate_us", "us", layer_med_us(Layer::kCtlNegotiate),
       "replay, per hop"},
      {"core.control.approve_us", "us", layer_med_us(Layer::kCtlApprove),
       "replay, per hop"},
      {"core.control.state_us", "us", layer_med_us(Layer::kCtlState),
       "replay, per hop"},
      {"core.control.ack_us", "us", layer_med_us(Layer::kCtlAck),
       "replay, per hop"},
      {"core.msgs_per_move", "count", msgs_per_move, "Stats, committed moves"},
      {"core.shipped_per_move", "count", mean(shipped), "replay"},
      {"gen.late_p99_ms", "ms", quantile(generator_late_ms(base), 0.99), ""},
      {"tail.dlv_p90_ms", "ms", windowed_quantile(base_dlv, kDlvWindow, 0.9),
       "untraced run"},
      {"tail.move_p90_ms", "ms",
       windowed_quantile(move_ms(base), kMoveWindow, 0.9), "untraced run"},
      {"tail.dlv_p99_ms", "ms", quantile(base_dlv, 0.99),
       std::to_string(base_dlv.size()) + " deliveries"},
      {"tail.move_p99_ms", "ms", quantile(move_ms(base), 0.99), ""},
      {"trace.closure_pct", "%", 100.0 * span_ns * 1e-9 / rep.wall_s,
       "replayed time inside named spans"},
      {"trace.overhead_pct", "%",
       100.0 * (speed_bound_s(traced) / speed_bound_s(base) - 1.0),
       "traced vs untraced, closed + unpaced phases"},
      {"run.pubs", "count", static_cast<double>(in.pubs.size()), ""},
      {"run.deliveries", "count", static_cast<double>(a.deliveries), ""},
      {"run.moves", "count", static_cast<double>(a.moves_committed), ""},
  };
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.reported) continue;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:");
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  std::string name, out_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out-dir") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr || seconds <= 0 || seconds > 60 ||
      (trace != 0 && trace != 1) || argc % 2 == 0) {
    return usage();
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n  why: %s\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, w->why.c_str());
  const Inputs in = generate(*w, seed, seconds);
  const Oracle oracle(in, kRaceWindow);
  std::printf("  inputs: %zu subscribers (%u movers), %zu publications "
              "(open %u closed %u paced %u unpaced %u), %zu replacements, "
              "%u+%u moves per mover\n",
              in.subs.size(), in.movers(), in.pubs.size(),
              in.phase_pubs(kOpen), in.phase_pubs(kClosed),
              in.phase_pubs(kPaced), in.phase_pubs(kUnpaced),
              in.churn.size(), in.paced_moves_per_mover,
              in.unpaced_moves_per_mover);
  std::fflush(stdout);

  if (trace == 0) {
    Hosts hosts;
    double rss = 0;
    std::string counts;
    std::uint64_t attempted = 0, failed = 0;
    bool self_check = true;
    for (int rep = 0; rep < kTimedReps; ++rep) {
      TcpRun run;
      if (!run_tcp(*w, in, oracle, {kSetupReps, false}, run)) return 1;
      const Accounting a = account(in, oracle, run);
      print_accounting(("tcp#" + std::to_string(rep + 1)).c_str(), a, run);
      add_host(*w, in, oracle, run, hosts);
      if (rep == 0) {
        rss = rss_mb();
        counts = "pubs " + std::to_string(in.pubs.size()) + ", deliveries " +
                 std::to_string(a.deliveries) + ", moves " +
                 std::to_string(a.moves_committed);
      }
      attempted += a.attempted;
      failed += a.failed;
      self_check = self_check && a.self_check;
    }
    print_result(failed == 0 && self_check, attempted, failed,
                 end_to_end(hosts, rss, counts, attempted, failed));
    return 0;
  }

  TcpRun base, traced;
  if (!run_tcp(*w, in, oracle, {1, false}, base)) return 1;
  if (!run_tcp(*w, in, oracle, {1, true}, traced)) return 1;
  const ReplayResult rep = run_replay(*w, in);
  const Accounting a = account(in, oracle, base);
  const Accounting b = account(in, oracle, traced);
  print_accounting("untraced", a, base);
  print_accounting("traced", b, traced);
  std::printf("  replay: %u publications, %u of %u moves committed, %zu spans, "
              "%.3f s, decode_failures %llu\n",
              rep.pubs, rep.moves, rep.planned_moves,
              rep.spans.spans().size(), rep.wall_s,
              static_cast<unsigned long long>(rep.decode_failures));
  {
    std::ofstream os(out_dir + "/spans_" + w->name + ".jsonl");
    traced.spans.write_jsonl(os, "tcp");
    rep.spans.write_jsonl(os, "replay");
  }
  // A replayed move that was refused, aborted, never resolved or never
  // issued fails the run: the per-layer move figures would come from a
  // truncated sample.
  const std::uint64_t failed = a.failed + b.failed + rep.decode_failures +
                               (rep.planned_moves - rep.moves);
  print_result(failed == 0 && a.self_check && b.self_check,
               a.attempted + b.attempted + rep.planned_moves, failed,
               per_layer(*w, in, oracle, base, traced, rep, a));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
