// Micro-benchmarks of the routing fabric (google-benchmark): matching,
// covering checks, intersection queries and table operations. These support
// the simulator's processing-cost model (publications are cheap to match;
// (un)subscription covering checks scale with table size).
#include <benchmark/benchmark.h>

#include <random>

#include "bench_json.h"
#include "pubsub/workload.h"
#include "routing/overlay.h"
#include "routing/routing_tables.h"
#include "routing_reference.h"

namespace tmps {
namespace {

RoutingTables make_tables(std::int64_t families) {
  RoutingTables rt;
  for (std::int64_t g = 0; g < families; ++g) {
    for (int i = 1; i <= 10; ++i) {
      const Subscription s{{static_cast<ClientId>(1000 + g * 10 + i),
                            1},
                           workload_filter(WorkloadKind::Covered, i, g)};
      auto& e = rt.prt().upsert(s, Hop::of_broker(2));
      e.forwarded_to.insert(Hop::of_broker(3));
    }
  }
  rt.srt().upsert({{1, 1}, full_space_advertisement()}, Hop::of_broker(3));
  return rt;
}

void BM_PublicationMatching(benchmark::State& state) {
  const auto rt = make_tables(state.range(0));
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::int64_t> x(0, 10000);
  std::uniform_int_distribution<std::int64_t> g(0, state.range(0) - 1);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    const Publication p = make_publication({1, ++seq}, x(rng), g(rng));
    benchmark::DoNotOptimize(rt.match(p).links);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PublicationMatching)->Arg(1)->Arg(10)->Arg(40)->Arg(100);

// Indexed vs full-scan matching: the counting forwarding index should keep
// per-publication cost near-flat in the number of covering families, while
// the reference scan grows linearly.
void BM_MatchingIndexed(benchmark::State& state) {
  const auto rt = make_tables(state.range(0));
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::int64_t> x(0, 10000);
  std::uniform_int_distribution<std::int64_t> g(0, state.range(0) - 1);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    const Publication p = make_publication({1, ++seq}, x(rng), g(rng));
    benchmark::DoNotOptimize(rt.match(p).matched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchingIndexed)->Arg(10)->Arg(100)->Arg(400);

void BM_MatchingScan(benchmark::State& state) {
  const auto rt = make_tables(state.range(0));
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::int64_t> x(0, 10000);
  std::uniform_int_distribution<std::int64_t> g(0, state.range(0) - 1);
  std::uint32_t seq = 0;
  for (auto _ : state) {
    const Publication p = make_publication({1, ++seq}, x(rng), g(rng));
    benchmark::DoNotOptimize(match_scan(rt, p).matched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchingScan)->Arg(10)->Arg(100)->Arg(400);

void BM_CoveringCheck(benchmark::State& state) {
  auto rt = make_tables(state.range(0));
  const Filter probe = workload_filter(WorkloadKind::Covered, 5, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.prt().covered_on_link({9999, 1}, probe, Hop::of_broker(3)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoveringCheck)->Arg(1)->Arg(10)->Arg(40)->Arg(100);

void BM_UnquenchScan(benchmark::State& state) {
  auto rt = make_tables(state.range(0));
  // Remove the root of family 0's forwarding and scan for orphans — the
  // expensive step of covering-based unsubscription.
  SubEntry* root = rt.prt().find({1001, 1});
  root->forwarded_to.clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.prt().unquench_candidates(*root, Hop::of_broker(3), rt.link_need()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnquenchScan)->Arg(1)->Arg(10)->Arg(40)->Arg(100);

void BM_FilterCovers(benchmark::State& state) {
  const Filter wide = workload_filter(WorkloadKind::Covered, 1, 0);
  const Filter narrow = workload_filter(WorkloadKind::Covered, 5, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wide.covers(narrow));
  }
}
BENCHMARK(BM_FilterCovers);

void BM_FilterIntersectsAdv(benchmark::State& state) {
  const Filter sub = workload_filter(WorkloadKind::Tree, 4, 3);
  const Filter adv = full_space_advertisement();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.intersects_advertisement(adv));
  }
}
BENCHMARK(BM_FilterIntersectsAdv);

void BM_FilterMatch(benchmark::State& state) {
  const Filter f = workload_filter(WorkloadKind::Covered, 1, 0);
  const Publication p = make_publication({1, 1}, 5000, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.matches(p));
  }
}
BENCHMARK(BM_FilterMatch);

void BM_OverlayNextHop(benchmark::State& state) {
  const Overlay o = Overlay::paper_default();
  BrokerId from = 1;
  for (auto _ : state) {
    from = (from % 14) + 1;
    const BrokerId to = (from % 14) + 1;
    if (from != to) benchmark::DoNotOptimize(o.next_hop(from, to));
  }
}
BENCHMARK(BM_OverlayNextHop);

void BM_OverlayPath(benchmark::State& state) {
  const Overlay o = Overlay::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(o.path(1, 13));
  }
}
BENCHMARK(BM_OverlayPath);

void BM_ShadowInstallCommit(benchmark::State& state) {
  auto rt = make_tables(4);
  const Subscription s{{1001, 1},
                       workload_filter(WorkloadKind::Covered, 1, 0)};
  TxnId txn = 100;
  for (auto _ : state) {
    rt.prt().install_shadow(s, Hop::of_broker(4), ++txn);
    rt.prt().commit_shadow(s.id, txn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowInstallCommit);

// Mirrors every run into BENCH_micro_matching.json (one row per benchmark)
// alongside google-benchmark's console table, so the micro benches land in
// the same artifact format as the figure benches. Extends the console
// reporter rather than registering as a file reporter: a file reporter
// would require --benchmark_out, which this binary manages itself.
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRowReporter(bench::BenchJson& json) : json_(&json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      auto& row = json_->add_row();
      row.field("name", run.benchmark_name())
          .field("iterations", static_cast<std::uint64_t>(run.iterations))
          .field("real_time", run.GetAdjustedRealTime())
          .field("cpu_time", run.GetAdjustedCPUTime())
          .field("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        row.field("items_per_second", static_cast<double>(it->second));
      }
    }
  }

 private:
  bench::BenchJson* json_;
};

}  // namespace
}  // namespace tmps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tmps::bench::BenchJson json("micro_matching", "benchmark");
  json.config()
      .field("workload", "covered")
      .field("reporter", "google-benchmark");
  tmps::JsonRowReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
