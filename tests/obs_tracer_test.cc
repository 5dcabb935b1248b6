// Tests of the movement-transaction tracer: span nesting and lifecycle at
// the unit level, the disabled toggle producing zero output, and cause-tag
// propagation through an end-to-end simulated movement (the trace must join
// the Stats message attribution by TxnId).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/mobility_engine.h"
#include "obs/trace.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

using obs::Attrs;
using obs::SpanId;
using obs::TraceRecord;
using obs::Tracer;

TEST(Tracer, SpanNestingAndAttrs) {
  Tracer t;
  t.set_enabled(true);
  double now = 0;
  t.set_clock([&now] { return now; });

  const SpanId root = t.begin_span(7, "movement", obs::kNoSpan,
                                   {{"source", "1"}, {"target", "3"}});
  ASSERT_NE(root, obs::kNoSpan);
  now = 1.0;
  const SpanId child = t.begin_span(7, "phase:prepare", root);
  ASSERT_NE(child, obs::kNoSpan);
  EXPECT_NE(child, root);
  now = 2.0;
  t.event(7, "hop:approve", {{"broker", "2"}}, child);
  now = 3.0;
  t.end_span(child, {{"outcome", "approved"}});
  now = 4.0;
  t.end_span(root, {{"outcome", "commit"}});

  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 3u);

  const TraceRecord& r = recs[0];
  EXPECT_TRUE(r.is_span);
  EXPECT_EQ(r.trace, 7u);
  EXPECT_EQ(r.parent, obs::kNoSpan);
  EXPECT_FALSE(r.open);
  EXPECT_DOUBLE_EQ(r.t0, 0.0);
  EXPECT_DOUBLE_EQ(r.t1, 4.0);
  ASSERT_EQ(r.attrs.size(), 3u);  // two at begin + outcome at end
  EXPECT_EQ(r.attrs[2].first, "outcome");
  EXPECT_EQ(r.attrs[2].second, "commit");

  const TraceRecord& c = recs[1];
  EXPECT_TRUE(c.is_span);
  EXPECT_EQ(c.parent, root);
  EXPECT_DOUBLE_EQ(c.t0, 1.0);
  EXPECT_DOUBLE_EQ(c.t1, 3.0);

  const TraceRecord& e = recs[2];
  EXPECT_FALSE(e.is_span);
  EXPECT_EQ(e.trace, 7u);
  EXPECT_EQ(e.parent, child);
  EXPECT_DOUBLE_EQ(e.t0, 2.0);
}

TEST(Tracer, EndSpanIgnoresUnknownAndNoSpanIds) {
  Tracer t;
  t.set_enabled(true);
  t.end_span(obs::kNoSpan);
  t.end_span(12345);  // never opened
  EXPECT_EQ(t.record_count(), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;  // disabled by default
  EXPECT_FALSE(t.enabled());
  const SpanId s = t.begin_span(1, "movement");
  EXPECT_EQ(s, obs::kNoSpan);
  t.event(1, "hop:approve");
  t.end_span(s);
  EXPECT_EQ(t.record_count(), 0u);

  // The macro forms short-circuit the same way, including on a null tracer.
  Tracer* null_tracer = nullptr;
  const SpanId m = TMPS_SPAN_BEGIN(null_tracer, 1, "movement", obs::kNoSpan);
  EXPECT_EQ(m, obs::kNoSpan);
  TMPS_EVENT(null_tracer, 1, "hop:approve");
  TMPS_SPAN_END(null_tracer, m);
  const SpanId d = TMPS_SPAN_BEGIN(&t, 1, "movement", obs::kNoSpan,
                                   {{"source", "1"}});
  EXPECT_EQ(d, obs::kNoSpan);
  TMPS_EVENT(&t, 1, "hop:approve", {{"broker", "2"}});
  EXPECT_EQ(t.record_count(), 0u);

  std::ostringstream os;
  t.write_jsonl(os);
  EXPECT_TRUE(os.str().empty());
}

TEST(Tracer, ToggleMidRunDropsOnlyDisabledWindow) {
  Tracer t;
  t.set_enabled(true);
  t.event(1, "a");
  t.set_enabled(false);
  t.event(1, "b");
  t.set_enabled(true);
  t.event(1, "c");
  const auto recs = t.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "a");
  EXPECT_EQ(recs[1].name, "c");
}

TEST(Tracer, WriteJsonlFlushesAndClears) {
  Tracer t;
  t.set_enabled(true);
  const SpanId s = t.begin_span(9, "movement");
  t.end_span(s);
  const SpanId open = t.begin_span(9, "phase:prepare", s);
  (void)open;  // left open: must be emitted with "open":true

  std::ostringstream os;
  t.write_jsonl(os, "runA");
  const std::string out = os.str();
  EXPECT_NE(out.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(out.find("\"run\":\"runA\""), std::string::npos);
  EXPECT_NE(out.find("\"trace\":9"), std::string::npos);
  EXPECT_NE(out.find("\"open\":true"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_EQ(t.record_count(), 0u);
}

// --- end-to-end: a simulated movement produces a joined trace --------------

class TracedMovement : public ::testing::Test {
 protected:
  TracedMovement() : overlay_(Overlay::chain(3)), net_(overlay_) {
    net_.tracer()->set_enabled(true);
  }

  Overlay overlay_;
  SimNetwork net_;
};

TEST_F(TracedMovement, MovementSpansJoinStatsByTxnId) {
#if !TMPS_TRACING_ENABLED
  GTEST_SKIP() << "instrumentation sites compiled out (TMPS_TRACING=OFF)";
#endif
  constexpr ClientId kMover = 500;
  constexpr ClientId kPublisher = 600;
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  net_.run();
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMover);
    e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2), out);
  });
  net_.run();

  TxnId txn = kNoTxn;
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 3, out);
  });
  net_.run();
  ASSERT_NE(txn, kNoTxn);

  const auto recs = net_.tracer()->records();
  auto find_span = [&](std::string_view name) -> const TraceRecord* {
    for (const auto& r : recs) {
      if (r.is_span && r.name == name && r.trace == txn) return &r;
    }
    return nullptr;
  };

  // Root movement span: closed, committed, TxnId == the cause tag used for
  // message attribution in Stats.
  const TraceRecord* movement = find_span("movement");
  ASSERT_NE(movement, nullptr);
  EXPECT_EQ(movement->parent, obs::kNoSpan);
  EXPECT_FALSE(movement->open);
  const auto outcome =
      std::find_if(movement->attrs.begin(), movement->attrs.end(),
                   [](const auto& kv) { return kv.first == "outcome"; });
  ASSERT_NE(outcome, movement->attrs.end());
  EXPECT_EQ(outcome->second, "commit");

  // Phase child spans nest under the movement span.
  const TraceRecord* prepare = find_span("phase:prepare");
  const TraceRecord* commit = find_span("phase:commit");
  ASSERT_NE(prepare, nullptr);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(prepare->parent, movement->span);
  EXPECT_EQ(commit->parent, movement->span);
  EXPECT_FALSE(prepare->open);
  EXPECT_FALSE(commit->open);
  EXPECT_LE(prepare->t1, commit->t1);

  // The target side opened a precommit span in the same trace.
  const TraceRecord* precommit = find_span("phase:precommit");
  ASSERT_NE(precommit, nullptr);
  EXPECT_FALSE(precommit->open);

  // Hop events carry the same TxnId, so the trace joins the Stats message
  // attribution for this movement.
  bool saw_hop = false;
  for (const auto& r : recs) {
    if (!r.is_span && r.trace == txn && r.name.rfind("hop:", 0) == 0) {
      saw_hop = true;
    }
  }
  EXPECT_TRUE(saw_hop);
  EXPECT_GT(net_.stats().messages_for_cause(txn), 0u);
}

TEST_F(TracedMovement, DisabledNetworkTracerEmitsNothing) {
  net_.tracer()->set_enabled(false);
  constexpr ClientId kMover = 500;
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMover);
    e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2), out);
  });
  net_.run();
  TxnId txn = kNoTxn;
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 3, out);
  });
  net_.run();
  ASSERT_NE(txn, kNoTxn);
  EXPECT_EQ(net_.tracer()->record_count(), 0u);
}

}  // namespace
}  // namespace tmps
