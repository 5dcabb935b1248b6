// Crash-restart at every movement phase, healed by the repair loop: a
// phase-targeted crash (failure/failure_injector.h PhaseCrash) wipes the
// victim's volatile 3PC conversation — source, target or an intermediate
// broker, at each protocol phase — with every coordinator timeout disabled,
// so the anti-entropy sweeps are the only healer. The run must end
// auditor-clean with exactly-once delivery and zero residual shadow state.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/scenario.h"
#include "failure/failure_injector.h"

namespace tmps {
namespace {

// The auditor reconstructs movement windows from tracer spans, which
// -DTMPS_TRACING=OFF removes.
#if TMPS_TRACING_ENABLED
#define TMPS_REQUIRE_TRACING()
#else
#define TMPS_REQUIRE_TRACING() \
  GTEST_SKIP() << "instrumentation sites compiled out (TMPS_TRACING=OFF)"
#endif

struct PhaseCase {
  const char* role;    // for test naming
  BrokerId victim;     // 1 = source end, 13 = target end, 8 = mid-path
  const char* phase;   // triggering control message type
};

// Fig. 6 topology, move pair 1 <-> 13 (path 1-3-4-8-12-13): broker 1 is the
// movement source end, 13 the target end, 8 an intermediate relay.
ScenarioConfig chaos_config() {
  ScenarioConfig cfg;
  cfg.mobility.protocol = MobilityProtocol::Reconfiguration;
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 24;
  cfg.moving_clients = 4;
  cfg.duration = 90.0;
  cfg.warmup = 20.0;
  cfg.pause_between_moves = 6.0;
  cfg.publish_interval = 2.0;
  cfg.seed = 11;
  cfg.audit = true;
  // Coordinator timeouts stay at their default 0 (disabled): only the
  // repair sweeps can unstick a movement the crash interrupted.
  cfg.broker.repair.enabled = true;
  cfg.broker.repair.sweep_interval = 1.0;
  cfg.broker.repair.stale_after = 2.5;
  cfg.broker.repair.confirm_rounds = 2;
  return cfg;
}

class PhaseCrashRepair : public ::testing::TestWithParam<PhaseCase> {};

TEST_P(PhaseCrashRepair, RepairConvergesAuditClean) {
  TMPS_REQUIRE_TRACING();
  const PhaseCase& pc = GetParam();
  ScenarioConfig cfg = chaos_config();
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    FailurePlan plan;
    plan.seed = cfg.seed;  // one seed reproduces workload and faults
    inj = std::make_unique<FailureInjector>(sc.net(), plan);
    PhaseCrash crash;
    crash.victim = pc.victim;
    crash.phase = pc.phase;
    crash.outage = 1.5;
    crash.count = 1;
    inj->crash_at_phase(crash);
  });
  Scenario s(cfg);
  s.run();

  ASSERT_FALSE(inj->fault_hits().empty())
      << pc.role << " never saw " << pc.phase;
  const obs::AuditReport& report = s.audit_report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(s.audit().duplicates, 0u);
  EXPECT_EQ(s.audit().mover_losses, 0u);
  for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
    EXPECT_FALSE(s.net().broker(b).tables().has_pending_shadows())
        << "residual shadow state at broker " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRolesAllPhases, PhaseCrashRepair,
    ::testing::Values(
        PhaseCase{"source", 1, "move-negotiate"},
        PhaseCase{"source", 1, "move-approve"},
        PhaseCase{"source", 1, "move-state"},
        PhaseCase{"source", 1, "move-ack"},
        PhaseCase{"target", 13, "move-negotiate"},
        PhaseCase{"target", 13, "move-approve"},
        PhaseCase{"target", 13, "move-state"},
        PhaseCase{"target", 13, "move-ack"},
        PhaseCase{"intermediate", 8, "move-negotiate"},
        PhaseCase{"intermediate", 8, "move-approve"},
        PhaseCase{"intermediate", 8, "move-state"},
        PhaseCase{"intermediate", 8, "move-ack"}),
    [](const ::testing::TestParamInfo<PhaseCase>& info) {
      std::string phase = info.param.phase;
      for (char& c : phase) {
        if (c == '-') c = '_';
      }
      return std::string(info.param.role) + "_" + phase;
    });

// Negative control: the same mid-path crash with the repair loop disabled
// must leave attributed violations — the healer, not luck, is what makes the
// parameterized suite green.
TEST(PhaseCrashRepair, DisabledRepairLeavesViolations) {
  TMPS_REQUIRE_TRACING();
  ScenarioConfig cfg = chaos_config();
  cfg.broker.repair.enabled = false;
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    FailurePlan plan;
    plan.seed = cfg.seed;
    inj = std::make_unique<FailureInjector>(sc.net(), plan);
    PhaseCrash crash;
    crash.victim = 8;
    crash.phase = "move-state";
    crash.outage = 1.5;
    crash.count = 1;
    inj->crash_at_phase(crash);
  });
  Scenario s(cfg);
  s.run();

  ASSERT_FALSE(inj->fault_hits().empty());
  EXPECT_FALSE(s.audit_report().clean())
      << "dropping move-state with timeouts disabled and no repair loop "
         "should strand the movement";
}

}  // namespace
}  // namespace tmps
