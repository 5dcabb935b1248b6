// Shared helpers for the figure-reproduction benchmarks.
//
// Every binary regenerates one table/figure of the paper's evaluation
// (Sec. 5) and prints the series the paper plots. Default runs use a
// shortened steady-state window so the full suite finishes in minutes; set
// TMPS_FULL=1 to run the paper's 1000-second experiments.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "core/scenario.h"

namespace tmps::bench {

inline bool full_run() {
  const char* v = std::getenv("TMPS_FULL");
  return v && *v && std::string(v) != "0";
}

/// TMPS_AUDIT=1 runs the embedded movement-invariant auditor over every
/// scenario; any violation prints the report and aborts the bench with a
/// nonzero exit, so a CI leg can fail on the first broken invariant.
/// (Env parsing lives in BrokerConfig::from_env; this is the bench-side
/// convenience view.)
inline bool audit_run() { return BrokerConfig::from_env().obs.audit; }

inline BenchJson json_out(std::string name) {
  return BenchJson(std::move(name), full_run() ? "full" : "quick");
}

/// The paper's default experiment setup (Sec. 5): 14-broker overlay of
/// Fig. 6, 400 clients moving between brokers 1<->13 and 2<->14 with a 10 s
/// pause, publishers at the leaf-corner brokers.
inline ScenarioConfig paper_config(MobilityProtocol proto, WorkloadKind wl) {
  ScenarioConfig cfg;
  cfg.mobility.protocol = proto;
  // Covering is the traditional protocol's optimization (and its measured
  // liability). Under reconfiguration mobility quenching is unsound — a
  // quenched subscription loses its delivery path when its coverer moves —
  // so reconfiguration deployments run with covering disabled.
  cfg.broker.subscription_covering = proto == MobilityProtocol::Traditional;
  cfg.broker.advertisement_covering = proto == MobilityProtocol::Traditional;
  cfg.workload = wl;
  cfg.total_clients = 400;
  cfg.pause_between_moves = 10.0;
  cfg.publish_interval = 1.0;
  cfg.duration = full_run() ? 1000.0 : 150.0;
  cfg.warmup = full_run() ? 100.0 : 40.0;
  cfg.seed = 7;
  return cfg;
}

inline const char* label(MobilityProtocol p) {
  return p == MobilityProtocol::Reconfiguration ? "reconfig" : "covering";
}

struct RunResult {
  double latency_ms = 0;
  double latency_max_ms = 0;
  double latency_stddev_ms = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  double msgs_per_movement = 0;
  std::uint64_t movements = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t mover_losses = 0;
  std::uint64_t mover_expected = 0;
  /// Provenance-derived end-to-end delivery latency (publish at the origin
  /// broker to delivery at the edge broker): bucket-interpolated
  /// percentiles of the pub_delivery_latency_seconds histogram, the one
  /// delivery-latency pipeline (fill_delivery_latency).
  std::uint64_t deliveries = 0;
  double dlv_p50_ms = 0, dlv_p95_ms = 0, dlv_p99_ms = 0;
};

/// Fills the delivery-latency fields of `r` from a finished scenario.
inline void fill_delivery_latency(Scenario& s, RunResult& r) {
  for (const obs::MetricSample& ms : s.net().metrics()->snapshot()) {
    if (ms.name == "pub_delivery_latency_seconds" && ms.labels.empty()) {
      r.deliveries = ms.count;
      r.dlv_p50_ms = obs::sample_percentile(ms, 0.50) * 1e3;
      r.dlv_p95_ms = obs::sample_percentile(ms, 0.95) * 1e3;
      r.dlv_p99_ms = obs::sample_percentile(ms, 0.99) * 1e3;
    }
  }
}

/// Wires the observability sinks when TMPS_TRACE is set: "1" writes
/// trace.jsonl / metrics.jsonl into the working directory, any other value
/// is used as the output directory. The first traced run of the process
/// truncates the files; later runs append, so a sweep lands in one file and
/// `tools/trace_inspect` can group it by run label. Env parsing is
/// BrokerConfig::from_env; the Scenario expands broker.obs.trace_dir into
/// the individual sink paths.
inline void apply_tracing(ScenarioConfig& cfg, const std::string& run_label) {
  cfg.broker = BrokerConfig::from_env(cfg.broker);
  if (!cfg.broker.obs.tracing && !cfg.broker.obs.audit) return;
  cfg.run_label = run_label;
  static bool first = true;
  cfg.trace_append = !first;
  first = false;
}

/// Enforces the auditor's verdict after a run: clean prints one stderr line,
/// any violation prints the full report and exits nonzero (so the CI audit
/// leg fails on the first broken invariant). No-op when auditing is off.
inline void check_audit(const Scenario& s, const std::string& run_label) {
  if (!s.config().audit) return;
  const obs::AuditReport& report = s.audit_report();
  if (!report.clean()) {
    std::fprintf(stderr, "AUDIT FAILED for run '%s':\n%s", run_label.c_str(),
                 report.summary().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "audit '%s': clean (%zu movements, %zu snapshots)\n",
               run_label.c_str(), report.movements_checked,
               report.snapshots_checked);
}

inline RunResult run_scenario(ScenarioConfig cfg,
                              const std::string& run_label = {}) {
  apply_tracing(cfg, run_label);
  Scenario s(cfg);
  s.run();
  check_audit(s, run_label);
  const Summary lat = s.latency();
  RunResult r;
  r.latency_ms = lat.mean() * 1e3;
  r.latency_max_ms = lat.max() * 1e3;
  r.latency_stddev_ms = lat.stddev() * 1e3;
  r.latency_p50_ms = lat.p50() * 1e3;
  r.latency_p95_ms = lat.p95() * 1e3;
  r.latency_p99_ms = lat.p99() * 1e3;
  r.msgs_per_movement = s.messages_per_movement();
  r.movements = s.movements();
  r.total_messages = s.stats().total_messages();
  r.duplicates = s.audit().duplicates;
  r.mover_losses = s.audit().mover_losses;
  r.mover_expected = s.audit().mover_expected;
  fill_delivery_latency(s, r);
  return r;
}

/// Appends the scenario parameters a regression diff must match on to a
/// bench's config object: topology size, population, schedule, seed. Call
/// with the bench's *template* config — per-row sweep axes (client count,
/// topology size, ...) belong in the rows, where tmps_benchdiff keys on
/// them. The moving-clients default (-1 = everyone) is reported as the
/// client count.
inline BenchJson::Row& scenario_config_fields(BenchJson::Row& row,
                                              const ScenarioConfig& cfg) {
  const std::uint32_t movers =
      cfg.moving_clients == static_cast<std::uint32_t>(-1)
          ? cfg.total_clients
          : cfg.moving_clients;
  return row
      .field("brokers",
             cfg.overlay ? cfg.overlay->broker_count()
                         : Overlay::paper_default().broker_count())
      .field("clients", cfg.total_clients)
      .field("moving_clients", movers)
      .field("pause_s", cfg.pause_between_moves)
      .field("publish_interval_s", cfg.publish_interval)
      .field("duration_s", cfg.duration)
      .field("warmup_s", cfg.warmup)
      .field("seed", cfg.seed);
}

/// Appends the standard result columns of a RunResult to a JSON row (after
/// the caller's own x-axis fields). `samples` is the committed-movement
/// count behind the lat_* percentiles — tmps_benchdiff treats rows with few
/// samples as advisory (a single-movement quick run has p50 == p99 == max,
/// which says nothing about regressions).
inline BenchJson::Row& result_fields(BenchJson::Row& row, const RunResult& r) {
  return row.field("samples", r.movements)
      .field("lat_mean_ms", r.latency_ms)
      .field("lat_p50_ms", r.latency_p50_ms)
      .field("lat_p95_ms", r.latency_p95_ms)
      .field("lat_p99_ms", r.latency_p99_ms)
      .field("lat_max_ms", r.latency_max_ms)
      .field("lat_stddev_ms", r.latency_stddev_ms)
      .field("msgs_per_movement", r.msgs_per_movement)
      .field("movements", r.movements)
      .field("total_messages", r.total_messages)
      .field("duplicates", r.duplicates)
      .field("mover_losses", r.mover_losses)
      .field("mover_expected", r.mover_expected)
      .field("deliveries", r.deliveries)
      .field("dlv_p50_ms", r.dlv_p50_ms)
      .field("dlv_p95_ms", r.dlv_p95_ms)
      .field("dlv_p99_ms", r.dlv_p99_ms);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("mode: %s\n", full_run() ? "full (paper-scale, TMPS_FULL=1)"
                                        : "quick (set TMPS_FULL=1 for 1000s runs)");
  std::printf("==============================================================\n");
}

}  // namespace tmps::bench
