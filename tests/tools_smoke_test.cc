// Smoke tests of the command-line observability tools: generate a real
// trace/snapshot pair with the scenario driver, then run the installed
// trace_inspect and tmps_audit binaries on it and check their output.
// Binary locations are injected by CMake (TMPS_TRACE_INSPECT_BIN /
// TMPS_AUDIT_BIN).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/scenario.h"
#include "obs/introspect.h"
#include "obs/trace.h"
#include "pubsub/workload.h"
#include "transport/tcp_transport.h"

namespace tmps {
namespace {

/// Runs `cmd`, capturing stdout+stderr into `out`; returns the exit code
/// (-1 when the shell could not run it).
int run_capture(const std::string& cmd, const std::string& out_file,
                std::string& out) {
  const int rc = std::system((cmd + " > " + out_file + " 2>&1").c_str());
  std::ifstream is(out_file);
  std::stringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

class ToolsSmoke : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One directory per process: ctest runs each test in its own process,
    // and parallel runs must not interleave their trace files.
    dir_ = new std::string(::testing::TempDir() + "/tools_smoke_" +
                           std::to_string(::getpid()));
    std::system(("mkdir -p " + *dir_).c_str());
    ScenarioConfig cfg;
    cfg.mobility.protocol = MobilityProtocol::Reconfiguration;
    cfg.broker.subscription_covering = false;
    cfg.broker.advertisement_covering = false;
    cfg.total_clients = 40;
    cfg.duration = 60.0;
    cfg.warmup = 20.0;
    cfg.pause_between_moves = 5.0;
    cfg.publish_interval = 2.0;
    cfg.seed = 11;
    cfg.run_label = "tools-smoke";
    cfg.trace_path = *dir_ + "/trace.jsonl";
    cfg.metrics_path = *dir_ + "/metrics.jsonl";
    cfg.snapshot_path = *dir_ + "/snapshots.jsonl";
    Scenario s(cfg);
    s.run();
  }

  static void TearDownTestSuite() {
    std::system(("rm -rf " + *dir_).c_str());
    delete dir_;
    dir_ = nullptr;
  }

  static std::string* dir_;
};

std::string* ToolsSmoke::dir_ = nullptr;

TEST_F(ToolsSmoke, TraceInspectRendersWaterfall) {
#if !TMPS_TRACING_ENABLED
  GTEST_SKIP() << "instrumentation sites compiled out (TMPS_TRACING=OFF)";
#endif
  std::string out;
  const int rc = run_capture(std::string(TMPS_TRACE_INSPECT_BIN) + " " +
                                 *dir_ + "/trace.jsonl " + *dir_ +
                                 "/metrics.jsonl --limit 3",
                             *dir_ + "/inspect.out", out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("movement txn="), std::string::npos) << out;
  EXPECT_NE(out.find("outcome=commit"), std::string::npos) << out;
}

TEST_F(ToolsSmoke, AuditCliIsGreenOnCleanRun) {
  std::string out;
  const int rc = run_capture(std::string(TMPS_AUDIT_BIN) + " " + *dir_ +
                                 "/trace.jsonl --snapshots " + *dir_ +
                                 "/snapshots.jsonl",
                             *dir_ + "/audit.out", out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("0 violation(s)"), std::string::npos) << out;
}

TEST(ToolsSmokeTop, TopPollsLiveAdminEndpoints) {
  // A real TCP transport with admin + timeseries on, then one tmps_top
  // --once round against every broker's endpoint.
  const Overlay overlay = Overlay::chain(2);
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  bc.admin.enabled = true;
  bc.obs.timeseries_interval = 0.1;
  bc.obs.profile = true;  // --stages pane reads GET /profile
  bc.obs.profile_rate = 1;
  TcpTransport net(overlay, 0, bc, MobilityConfig{});
  ASSERT_TRUE(net.start());
  net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(600);
    e.advertise(600, full_space_advertisement(), out);
  });
  for (std::uint32_t seq = 1; seq <= 10; ++seq) {
    const Publication p = make_publication({600, seq}, 100, 0);
    net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(600, Publication(p), out);
    });
  }
  net.drain();
  // Give the timer thread a chance to close at least one window.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::string cmd = std::string(TMPS_TOP_BIN) + " --once --stages";
  for (BrokerId b = 1; b <= 2; ++b) {
    cmd += " 127.0.0.1:" + std::to_string(net.admin_port_of(b));
  }
  const std::string dir = ::testing::TempDir();
  std::string out;
  const int rc = run_capture(cmd, dir + "/top.out", out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("BROKER"), std::string::npos) << out;
  EXPECT_EQ(out.find("unreachable"), std::string::npos) << out;
  // The stage pane lists broker 1's hot stages. Matching is index-backed
  // and falls below the pane's half-percent share cutoff on a table this
  // small, so assert on the route-update stage (the advertise/flood work),
  // which dominates this workload's profiled walks.
  EXPECT_NE(out.find("STAGES"), std::string::npos) << out;
  EXPECT_NE(out.find("route_update"), std::string::npos) << out;
  net.stop();

  // With every endpoint down, --once must exit non-zero.
  const int rc_down = run_capture(cmd, dir + "/top_down.out", out);
  EXPECT_EQ(rc_down, 1) << out;
}

/// Writes a minimal bench-JSON artifact in the shape bench_json.h emits.
/// `samples` controls whether the latency percentiles are considered
/// powered; `seed` lands in the config block (a mismatch axis).
std::string write_bench_json(const std::string& path, double lat_p95_ms,
                             int samples, int seed) {
  std::ofstream os(path);
  os << "{\"bench\":\"synthetic\",\"mode\":\"quick\",\"config\":{\"seed\":"
     << seed << "},\"rows\":[\n"
     << "{\"protocol\":\"reconfig\",\"samples\":" << samples
     << ",\"lat_p95_ms\":" << lat_p95_ms
     << ",\"movements\":" << samples << ",\"duplicates\":0}\n]}";
  return path;
}

TEST(ToolsSmokeBenchdiff, CleanDiffExitsZero) {
  const std::string dir = ::testing::TempDir();
  const auto base = write_bench_json(dir + "/bd_base.json", 100.0, 100, 7);
  const auto cur = write_bench_json(dir + "/bd_same.json", 100.0, 100, 7);
  std::string out;
  const int rc = run_capture(
      std::string(TMPS_BENCHDIFF_BIN) + " " + base + " " + cur,
      dir + "/bd_same.out", out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("clean"), std::string::npos) << out;
}

TEST(ToolsSmokeBenchdiff, TenPercentLatencyRegressionFails) {
  const std::string dir = ::testing::TempDir();
  const auto base = write_bench_json(dir + "/bd_base2.json", 100.0, 100, 7);
  const auto cur = write_bench_json(dir + "/bd_reg.json", 110.0, 100, 7);
  std::string out;
  const int rc = run_capture(
      std::string(TMPS_BENCHDIFF_BIN) + " " + base + " " + cur,
      dir + "/bd_reg.out", out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("REGRESSION"), std::string::npos) << out;
  EXPECT_NE(out.find("lat_p95_ms"), std::string::npos) << out;
}

TEST(ToolsSmokeBenchdiff, UnderpoweredLatencyRowIsAdvisoryOnly) {
  // One movement: p95 == the single sample; a big delta proves nothing,
  // so the row is reported but must not fail the diff.
  const std::string dir = ::testing::TempDir();
  const auto base = write_bench_json(dir + "/bd_base3.json", 100.0, 1, 7);
  const auto cur = write_bench_json(dir + "/bd_weak.json", 150.0, 1, 7);
  std::string out;
  const int rc = run_capture(
      std::string(TMPS_BENCHDIFF_BIN) + " " + base + " " + cur,
      dir + "/bd_weak.out", out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("advisory"), std::string::npos) << out;
  EXPECT_NE(out.find("underpowered"), std::string::npos) << out;
}

TEST(ToolsSmokeBenchdiff, ConfigMismatchRefusesToCompare) {
  const std::string dir = ::testing::TempDir();
  const auto base = write_bench_json(dir + "/bd_base4.json", 100.0, 100, 7);
  const auto cur = write_bench_json(dir + "/bd_seed.json", 100.0, 100, 8);
  std::string out;
  const int rc = run_capture(
      std::string(TMPS_BENCHDIFF_BIN) + " " + base + " " + cur,
      dir + "/bd_seed.out", out);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("mismatch"), std::string::npos) << out;
  // --force overrides the refusal; identical metrics then diff clean.
  const int rc_forced = run_capture(
      std::string(TMPS_BENCHDIFF_BIN) + " --force " + base + " " + cur,
      dir + "/bd_seed_forced.out", out);
  EXPECT_EQ(rc_forced, 0) << out;
}

TEST_F(ToolsSmoke, AuditCliFlagsDoctoredSnapshots) {
  // Append a forged final snapshot carrying shadow state: the CLI must
  // exit non-zero and name the orphan.
  {
    std::ofstream os(*dir_ + "/bad_snaps.jsonl");
    std::ifstream is(*dir_ + "/snapshots.jsonl");
    os << is.rdbuf();
    obs::BrokerSnapshot forged;
    forged.run = "tools-smoke";
    forged.broker = 4;
    forged.time = 1e6;  // later than the run's real final snapshots
    forged.final_snapshot = true;
    obs::EntrySnap e;
    e.id = "1001:1";
    e.filter = "f";
    e.lasthop = "B1";
    e.has_shadow = true;
    e.shadow_lasthop = "B5";
    e.shadow_txn = 9999;
    forged.prt.push_back(e);
    forged.write_jsonl(os);
  }
  std::string out;
  const int rc = run_capture(std::string(TMPS_AUDIT_BIN) + " " + *dir_ +
                                 "/trace.jsonl --snapshots " + *dir_ +
                                 "/bad_snaps.jsonl",
                             *dir_ + "/audit_bad.out", out);
  EXPECT_EQ(rc, 1) << out;
  EXPECT_NE(out.find("orphan-state"), std::string::npos) << out;
  EXPECT_NE(out.find("9999"), std::string::npos) << out;
}

}  // namespace
}  // namespace tmps
