// Covering-index micro-benchmark (the tentpole measurement): covering-check
// and strict-cover-set queries on routing tables populated with the Fig. 7
// workload shapes, index-backed vs full-table scan, at 1k..50k
// subscriptions. Every timed query is also checked for exact agreement
// between the index and the scan oracle — any divergence fails the binary
// (exit 1), so the CI perf-smoke leg doubles as a correctness gate.
//
// Writes BENCH_micro_covering.json (one row per workload × size with
// ns/query for both backends and the speedup). Usage:
//   micro_covering [max_subscriptions]
// The optional cap trims the size sweep (CI runs `micro_covering 2000`);
// TMPS_FULL=1 extends the sweep to 50k subscriptions.
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

RoutingTables make_tables(WorkloadKind k, int n, std::uint64_t seed) {
  RoutingTables rt;
  const int families = n / 10;
  for (int g = 0; g < families; ++g) {
    for (int i = 1; i <= 10; ++i) {
      const Subscription s{{static_cast<ClientId>(1000 + g * 10 + i), 1},
                           workload_filter_at(k, i, g, seed)};
      auto& e = rt.prt().upsert(s, Hop::of_broker(2));
      e.forwarded_to.insert(Hop::of_broker(3));
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

template <class Entry>
std::vector<EntityId> ids_of(const std::vector<Entry*>& es) {
  std::vector<EntityId> out;
  for (const Entry* e : es) out.push_back(e->item.id);
  std::sort(out.begin(), out.end());
  return out;
}

void die_on_mismatch(bool ok, const char* what, WorkloadKind k, int n,
                     int q) {
  if (ok) return;
  std::fprintf(stderr,
               "FATAL: covering index disagrees with scan oracle (%s, "
               "workload=%s, n=%d, query=%d)\n",
               what, to_string(k), n, q);
  std::exit(1);
}

struct Timings {
  double covered_index_ns = 0, covered_scan_ns = 0;
  double strict_index_ns = 0, strict_scan_ns = 0;
};

Timings measure(RoutingTables& rt, WorkloadKind k, int n,
                std::uint64_t seed) {
  const Hop link = Hop::of_broker(3);
  std::mt19937_64 rng(seed ^ 0xBEEF);
  const int families = n / 10;

  // Probe filters: fresh subscriptions drawn from random families —
  // narrow members (usually covered) for the covered-check, the family
  // root (covers its family) for the strict-cover-set query.
  std::vector<Filter> narrow, wide;
  for (int q = 0; q < kQueries; ++q) {
    const auto g = static_cast<std::int64_t>(rng() % families);
    narrow.push_back(
        workload_filter_at(k, 2 + static_cast<int>(rng() % 9), g, seed));
    wide.push_back(workload_filter_at(k, 1, g, seed));
  }

  // Correctness gate first: every timed query must agree with its oracle.
  for (int q = 0; q < kQueries; ++q) {
    const SubscriptionId probe{9999, static_cast<std::uint32_t>(q + 1)};
    die_on_mismatch(rt.prt().covered_on_link(probe, narrow[q], link) ==
                        covered_on_link_scan(rt.prt(), probe, narrow[q], link),
                    "covered_on_link", k, n, q);
    die_on_mismatch(
        ids_of(rt.prt().strictly_covered_on_link(probe, wide[q], link)) ==
            ids_of(strictly_covered_on_link_scan(rt.prt(), probe, wide[q],
                                                 link)),
        "strictly_covered_on_link", k, n, q);
  }

  Timings t;
  t.covered_index_ns = ns_per_query(
      [&] {
        for (int q = 0; q < kQueries; ++q) {
          volatile bool r = rt.prt().covered_on_link(
              {9999, static_cast<std::uint32_t>(q + 1)}, narrow[q], link);
          (void)r;
        }
      },
      kQueries);
  t.covered_scan_ns = ns_per_query(
      [&] {
        for (int q = 0; q < kQueries; ++q) {
          volatile bool r = covered_on_link_scan(
              rt.prt(), {9999, static_cast<std::uint32_t>(q + 1)}, narrow[q],
              link);
          (void)r;
        }
      },
      kQueries);
  t.strict_index_ns = ns_per_query(
      [&] {
        for (int q = 0; q < kQueries; ++q) {
          auto r = rt.prt().strictly_covered_on_link(
              {9999, static_cast<std::uint32_t>(q + 1)}, wide[q], link);
          (void)r;
        }
      },
      kQueries);
  t.strict_scan_ns = ns_per_query(
      [&] {
        for (int q = 0; q < kQueries; ++q) {
          auto r = strictly_covered_on_link_scan(
              rt.prt(), {9999, static_cast<std::uint32_t>(q + 1)}, wide[q],
              link);
          (void)r;
        }
      },
      kQueries);
  return t;
}

}  // namespace
}  // namespace tmps

int main(int argc, char** argv) {
  using namespace tmps;

  std::vector<int> sizes = {1000, 5000, 10000};
  if (full_run()) sizes.push_back(50000);
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

  bench::BenchJson json("micro_covering",
                        full_run() ? "full" : "quick");
  json.config().field("queries", kQueries).field("seed", kSeed);

  std::printf("%-9s %7s | %12s %12s %8s | %12s %12s %8s\n", "workload",
              "subs", "covered ix", "covered scan", "speedup", "strict ix",
              "strict scan", "speedup");
  for (WorkloadKind k : kKinds) {
    for (int n : sizes) {
      RoutingTables rt = make_tables(k, n, kSeed);
      // Structural cross-check of the index against the table (skipped at
      // 50k: the per-entry self-candidacy sweep is quadratic-ish).
      if (n <= 10000) {
        const auto violations = rt.check_cover_index();
        if (!violations.empty()) {
          std::fprintf(stderr, "FATAL: check_cover_index: %s\n",
                       violations.front().c_str());
          return 1;
        }
      }
      const Timings t = measure(rt, k, n, kSeed);
      const double covered_speedup = t.covered_scan_ns / t.covered_index_ns;
      const double strict_speedup = t.strict_scan_ns / t.strict_index_ns;
      std::printf("%-9s %7d | %10.0fns %10.0fns %7.1fx | %10.0fns %10.0fns "
                  "%7.1fx\n",
                  to_string(k), n, t.covered_index_ns, t.covered_scan_ns,
                  covered_speedup, t.strict_index_ns, t.strict_scan_ns,
                  strict_speedup);
      json.add_row()
          .field("workload", to_string(k))
          .field("n", n)
          .field("queries", kQueries)
          .field("covered_index_ns", t.covered_index_ns)
          .field("covered_scan_ns", t.covered_scan_ns)
          .field("strict_index_ns", t.strict_index_ns)
          .field("strict_scan_ns", t.strict_scan_ns)
          .field("speedup", covered_speedup)
          .field("strict_speedup", strict_speedup);
    }
  }
  return 0;
}
