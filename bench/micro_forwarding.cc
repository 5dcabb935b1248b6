// Forwarding-core micro-benchmark (the tentpole measurement): publication
// matching through the redesigned RoutingTables::match() API, counting-index
// backed vs full-PRT scan, on tables populated with the Fig. 7 workload
// shapes at 10k..1M subscriptions — plus a sustained publish-rate soak with
// subscription churn through apply_batch. Every timed query is also checked
// for exact agreement (links, matched count) between the index and the
// match_scan oracle — any divergence fails the binary (exit 1), so the CI
// perf-smoke leg doubles as a correctness gate. At the gate size the index
// must beat the scan by TMPS_GATE x (default 10; 0 disables).
//
// Writes BENCH_micro_forwarding.json (one row per workload × size with
// ns/match for both backends and the speedup, plus one soak row). Usage:
//   micro_forwarding [max_subscriptions]
// The optional cap trims the size sweep (CI runs `micro_forwarding 100000`);
// TMPS_FULL=1 extends the sweep to 1M subscriptions.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "pubsub/workload.h"
#include "routing/routing_tables.h"
#include "routing_reference.h"

namespace tmps {
namespace {

bool full_run() {
  const char* v = std::getenv("TMPS_FULL");
  return v && *v && std::string(v) != "0";
}

constexpr int kQueries = 64;
constexpr int kGateSubs = 100000;

double gate_speedup() {
  if (const char* v = std::getenv("TMPS_GATE"); v && *v) {
    return std::atof(v);
  }
  return 10.0;
}

RoutingTables make_tables(WorkloadKind k, int n, std::uint64_t seed) {
  RoutingTables rt;
  const int families = n / 10;
  for (int g = 0; g < families; ++g) {
    for (int i = 1; i <= 10; ++i) {
      const Subscription s{{static_cast<ClientId>(1000 + g * 10 + i), 1},
                           workload_filter_at(k, i, g, seed)};
      // Spread last hops over a few links so matches produce real fan-out.
      rt.prt().upsert(s,
                      Hop::of_broker(static_cast<BrokerId>(2 + (g + i) % 4)));
    }
  }
  rt.srt().upsert({{1, 1}, full_space_advertisement()}, Hop::of_broker(3));
  return rt;
}

/// ns per query of `f` (which runs `ops` queries per call), repeated until
/// the sample window exceeds ~5 ms for a stable reading.
template <typename F>
double ns_per_query(F&& f, int ops) {
  using clock = std::chrono::steady_clock;
  f();  // warm caches
  long iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (long i = 0; i < iters; ++i) f();
    const double ns =
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    if (ns > 5e6 || iters >= (1L << 22)) {
      return ns / (static_cast<double>(iters) * ops);
    }
    iters *= 4;
  }
}

void die_on_mismatch(bool ok, const char* what, WorkloadKind k, int n,
                     int q) {
  if (ok) return;
  std::fprintf(stderr,
               "FATAL: forwarding index disagrees with scan oracle (%s, "
               "workload=%s, n=%d, query=%d)\n",
               what, to_string(k), n, q);
  std::exit(1);
}

struct Timings {
  double match_index_ns = 0, match_scan_ns = 0;
  double matched_mean = 0;
};

Timings measure(RoutingTables& rt, WorkloadKind k, int n,
                std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xF00D);
  const int families = n / 10;

  std::vector<Publication> pubs;
  for (int q = 0; q < kQueries; ++q) {
    pubs.push_back(make_publication(
        {1, static_cast<std::uint32_t>(q + 1)},
        static_cast<std::int64_t>(rng() % 10000),
        static_cast<std::int64_t>(rng() % families)));
  }

  // Correctness gate first: every timed publication must match identically
  // through the index and the scan oracle.
  Timings t;
  for (int q = 0; q < kQueries; ++q) {
    const MatchResult ix = rt.match(pubs[q]);
    const MatchResult sc = match_scan(rt, pubs[q]);
    die_on_mismatch(ix.links == sc.links, "links", k, n, q);
    die_on_mismatch(ix.matched == sc.matched, "matched", k, n, q);
    die_on_mismatch(ix.version == sc.version, "version", k, n, q);
    t.matched_mean += static_cast<double>(ix.matched) / kQueries;
  }

  t.match_index_ns = ns_per_query(
      [&] {
        for (const Publication& p : pubs) {
          const MatchResult r = rt.match(p);
          volatile std::size_t sink = r.links.size();
          (void)sink;
        }
      },
      kQueries);
  t.match_scan_ns = ns_per_query(
      [&] {
        for (const Publication& p : pubs) {
          const MatchResult r = match_scan(rt, p);
          volatile std::size_t sink = r.links.size();
          (void)sink;
        }
      },
      kQueries);
  return t;
}

/// Sustained publish-rate soak: continuous match() against the largest
/// table with periodic subscription churn applied through apply_batch, a
/// 1-in-1024 cross-check against the scan oracle throughout. The clock is
/// paused around each cross-check, so the rate measures match() and churn
/// only.
void soak(bench::BenchJson& json, int n, std::uint64_t seed,
          double seconds) {
  RoutingTables rt = make_tables(WorkloadKind::Covered, n, seed);
  std::mt19937_64 rng(seed ^ 0x50AC);
  const int families = n / 10;
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::uint64_t pubs = 0, churn_batches = 0;
  std::uint32_t seq = 0;
  double elapsed = 0, oracle = 0;  // seconds; oracle time is not elapsed
  while ((elapsed = std::chrono::duration<double>(clock::now() - t0).count() -
                    oracle) < seconds) {
    const Publication p = make_publication(
        {2, ++seq}, static_cast<std::int64_t>(rng() % 10000),
        static_cast<std::int64_t>(rng() % families));
    const MatchResult r = rt.match(p);
    volatile std::size_t sink = r.links.size();
    (void)sink;
    ++pubs;
    if (pubs % 1024 == 0) {
      const auto c0 = clock::now();
      const MatchResult sc = match_scan(rt, p);
      oracle += std::chrono::duration<double>(clock::now() - c0).count();
      die_on_mismatch(r.links == sc.links && r.matched == sc.matched,
                      "soak", WorkloadKind::Covered, n,
                      static_cast<int>(pubs));
    }
    if (pubs % 4096 == 0) {  // churn: retract + re-issue one family's subs
      const auto g = static_cast<std::int64_t>(rng() % families);
      std::vector<RoutingMutation> muts;
      for (int i = 1; i <= 10; ++i) {
        const EntityId id{static_cast<ClientId>(1000 + g * 10 + i), 1};
        if (const SubEntry* e = rt.prt().find(id)) {
          muts.push_back(RoutingMutation::remove_sub(id, e->lasthop));
        }
        muts.push_back(RoutingMutation::add_sub(
            {id, workload_filter_at(WorkloadKind::Covered, i, g, seed)},
            Hop::of_broker(static_cast<BrokerId>(2 + (g + i) % 4))));
      }
      rt.apply_batch(muts);
      ++churn_batches;
    }
  }
  const double rate = static_cast<double>(pubs) / elapsed;
  std::printf("%-9s %7d | %10.0f pubs/s over %.2fs (%llu pubs, %llu churn "
              "batches)\n",
              "soak", n, rate, elapsed,
              static_cast<unsigned long long>(pubs),
              static_cast<unsigned long long>(churn_batches));
  json.add_row()
      .field("workload", "soak")
      .field("subs", n)
      .field("pubs", static_cast<std::uint64_t>(pubs))
      .field("churn_batches", static_cast<std::uint64_t>(churn_batches))
      .field("pubs_per_sec", rate);
}

}  // namespace
}  // namespace tmps

int main(int argc, char** argv) {
  using namespace tmps;

  std::vector<int> sizes = {10000, 100000};
  if (full_run()) sizes.push_back(1000000);
  if (argc > 1) {
    const int cap = std::atoi(argv[1]);
    if (cap > 0) {
      std::erase_if(sizes, [&](int n) { return n > cap; });
      if (sizes.empty()) sizes.push_back(cap);
    }
  }

  constexpr WorkloadKind kKinds[] = {WorkloadKind::Covered,
                                     WorkloadKind::Chained, WorkloadKind::Tree,
                                     WorkloadKind::Distinct,
                                     WorkloadKind::Random};
  constexpr std::uint64_t kSeed = 42;
  const double gate = gate_speedup();
  bool gate_failed = false;

  bench::BenchJson json("micro_forwarding",
                        full_run() ? "full" : "quick");
  json.config().field("queries", kQueries).field("seed", kSeed);

  std::printf("%-9s %7s | %12s %12s %8s | %10s\n", "workload", "subs",
              "match ix", "match scan", "speedup", "mean match");
  for (WorkloadKind k : kKinds) {
    for (int n : sizes) {
      RoutingTables rt = make_tables(k, n, kSeed);
      // Structural cross-check of the index against the table (skipped at
      // 1M: the per-entry witness sweep dominates the run).
      if (n <= kGateSubs) {
        const auto violations = rt.check_forward_index();
        if (!violations.empty()) {
          std::fprintf(stderr, "FATAL: check_forward_index: %s\n",
                       violations.front().c_str());
          return 1;
        }
      }
      const Timings t = measure(rt, k, n, kSeed);
      const double speedup = t.match_scan_ns / t.match_index_ns;
      std::printf("%-9s %7d | %10.0fns %10.0fns %7.1fx | %10.1f\n",
                  to_string(k), n, t.match_index_ns, t.match_scan_ns,
                  speedup, t.matched_mean);
      json.add_row()
          .field("workload", to_string(k))
          .field("subs", n)
          .field("queries", kQueries)
          .field("match_index_ns", t.match_index_ns)
          .field("match_scan_ns", t.match_scan_ns)
          .field("speedup", speedup)
          .field("matched_mean", t.matched_mean);
      if (n == kGateSubs && gate > 0 && speedup < gate) {
        std::fprintf(stderr,
                     "FATAL: speedup gate missed (workload=%s, n=%d): "
                     "%.1fx < %.1fx\n",
                     to_string(k), n, speedup, gate);
        gate_failed = true;
      }
    }
  }

  const int soak_n = *std::max_element(sizes.begin(), sizes.end());
  soak(json, soak_n, kSeed, full_run() ? 2.0 : 0.25);

  return gate_failed ? 1 : 0;
}
