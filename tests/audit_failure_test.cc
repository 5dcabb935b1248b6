// Failure injection against the movement-invariant auditor: targeted
// unmasked message faults (outside the paper's delay-only fault model) must
// surface as attributed invariant violations — the auditor is the detector
// of record, so each violation class is demonstrated end-to-end.
#include <gtest/gtest.h>

#include <memory>

#include "core/scenario.h"
#include "failure/failure_injector.h"
#include "obs/trace.h"

namespace tmps {
namespace {

// Violation attribution joins fault hits against movement windows
// reconstructed from tracer spans, which -DTMPS_TRACING=OFF removes.
#if TMPS_TRACING_ENABLED
#define TMPS_REQUIRE_TRACING()
#else
#define TMPS_REQUIRE_TRACING() \
  GTEST_SKIP() << "instrumentation sites compiled out (TMPS_TRACING=OFF)"
#endif

using obs::InvariantKind;

ScenarioConfig small(MobilityProtocol proto) {
  ScenarioConfig cfg;
  cfg.mobility.protocol = proto;
  cfg.broker.subscription_covering = proto == MobilityProtocol::Traditional;
  cfg.broker.advertisement_covering = proto == MobilityProtocol::Traditional;
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 40;
  cfg.duration = 60.0;
  cfg.warmup = 20.0;
  cfg.pause_between_moves = 5.0;
  cfg.publish_interval = 2.0;
  cfg.seed = 11;
  cfg.audit = true;
  return cfg;
}

const obs::InvariantViolation* find_kind(const obs::AuditReport& r,
                                         InvariantKind kind) {
  for (const auto& v : r.violations) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

// Violation class 1: orphaned routing state. Dropping one "move-state"
// message stalls the three-phase commit mid-path: brokers past the drop
// point keep their shadow entries forever, and the movement span never
// closes. The auditor must attribute both to the stalled transaction.
TEST(AuditFailure, DroppedStateMessageLeavesAttributedOrphans) {
  TMPS_REQUIRE_TRACING();
  ScenarioConfig cfg = small(MobilityProtocol::Reconfiguration);
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    inj = std::make_unique<FailureInjector>(sc.net(), FailurePlan{});
    MessageFault f;
    f.action = MessageFault::Action::Drop;
    f.type = "move-state";
    f.after = 25.0;
    f.count = 1;
    inj->arm(f);
  });
  Scenario s(cfg);
  s.run();

  ASSERT_EQ(inj->fault_hits().size(), 1u);
  const TxnId txn = inj->fault_hits()[0].cause;
  ASSERT_NE(txn, kNoTxn);

  const obs::AuditReport& report = s.audit_report();
  EXPECT_FALSE(report.clean());

  bool orphan_attributed = false, quiescence_attributed = false;
  for (const auto& v : report.violations) {
    if (v.kind == InvariantKind::OrphanState && v.txn == txn) {
      orphan_attributed = true;
      EXPECT_NE(v.broker, 0u);
    }
    if (v.kind == InvariantKind::Quiescence && v.txn == txn) {
      quiescence_attributed = true;
    }
  }
  EXPECT_TRUE(orphan_attributed) << report.summary();
  EXPECT_TRUE(quiescence_attributed) << report.summary();
}

// Violation class 2: lost delivery. Dropping publications on the link into
// broker 1 starves the subscribers hosted there; the reconfiguration
// protocol promises exactly-once to movers, so the auditor must flag the
// losses against the nearest movement window of the starved client.
TEST(AuditFailure, DroppedPublicationsAreAttributedAsLostDeliveries) {
  TMPS_REQUIRE_TRACING();
  ScenarioConfig cfg = small(MobilityProtocol::Reconfiguration);
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    inj = std::make_unique<FailureInjector>(sc.net(), FailurePlan{});
    MessageFault f;
    f.action = MessageFault::Action::Drop;
    f.type = "pub";
    f.to = 1;
    f.after = 30.0;
    f.count = -1;  // every publication entering broker 1 from t=30 on
    inj->arm(f);
  });
  Scenario s(cfg);
  s.run();

  ASSERT_FALSE(inj->fault_hits().empty());
  const obs::AuditReport& report = s.audit_report();
  const auto* v = find_kind(report, InvariantKind::LostDelivery);
  ASSERT_NE(v, nullptr) << report.summary();
  EXPECT_GE(v->client, 1000u);  // a subscriber
  EXPECT_NE(v->txn, kNoTxn);   // pinned to one of the client's movements
}

// Violation class 3: duplicate delivery. Under the traditional protocol a
// move re-subscribes with a fresh incarnation, so a late duplicate of a
// publication the client already received before moving slips past the new
// stub's de-duplication — exactly the hand-off hazard of Sec. 2.
TEST(AuditFailure, LateDuplicateAcrossIncarnationsIsFlagged) {
  TMPS_REQUIRE_TRACING();
  ScenarioConfig cfg = small(MobilityProtocol::Traditional);
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    inj = std::make_unique<FailureInjector>(sc.net(), FailurePlan{});
    MessageFault f;
    f.action = MessageFault::Action::Duplicate;
    f.type = "pub";
    f.to = 1;
    f.after = 25.0;
    f.count = -1;
    f.delay = 6.5;  // longer than the 5 s pause: the mover has moved on
    inj->arm(f);
  });
  Scenario s(cfg);
  s.run();

  ASSERT_FALSE(inj->fault_hits().empty());
  const obs::AuditReport& report = s.audit_report();
  const auto* v = find_kind(report, InvariantKind::DuplicateDelivery);
  ASSERT_NE(v, nullptr) << report.summary();
  EXPECT_GE(v->client, 1000u);
}

// Masked failures (the paper's fault model: crash = pause + retransmit) are
// absorbed by the protocol — the auditor must stay silent.
TEST(AuditFailure, MaskedBrokerCrashKeepsAuditGreen) {
  ScenarioConfig cfg = small(MobilityProtocol::Reconfiguration);
  std::unique_ptr<FailureInjector> inj;
  cfg.post_build.push_back([&](Scenario& sc) {
    inj = std::make_unique<FailureInjector>(sc.net(), FailurePlan{});
    inj->crash_broker_at(3, 30.0, 2.0);
  });
  Scenario s(cfg);
  s.run();
  EXPECT_TRUE(s.audit_report().clean()) << s.audit_report().summary();
}

}  // namespace
}  // namespace tmps
