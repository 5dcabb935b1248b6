// Property test for the disconnected-operation buffer bounds (session
// layer): across randomized workloads of buffering and resume/pause
// cycles, the count/byte caps are never exceeded
// and every publication is accounted exactly once — delivered, still
// buffered, or in the drop ledger. A manager-level run cross-checks the
// stub's drop callbacks against the SessionManager ledger and the metrics
// counter (the soak auditor's bookkeeping).
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "core/client_stub.h"
#include "core/mobility_engine.h"
#include "obs/metrics.h"
#include "pubsub/workload.h"
#include "session/session_manager.h"
#include "sim/network.h"

namespace tmps {
namespace {

Publication sized_pub(std::uint32_t seq, std::size_t pad) {
  Publication p = make_publication({9, seq}, 100, 0);
  if (pad > 0) p.set("pad", Value(std::string(pad, 'x')));
  return p;
}

TEST(SessionBufferProperty, CapsHoldAndEveryPublicationAccountedOnce) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::mt19937_64 rng(seed);
    ClientStub stub(7);
    stub.create();
    stub.start();
    stub.pause();  // detached: notifications buffer

    const BufferLimits limits{8, 600};
    stub.set_buffer_limits(limits);

    std::set<PublicationId> pushed, delivered, dropped;
    stub.set_delivery_fn([&](const Publication& p) {
      EXPECT_TRUE(delivered.insert(p.id()).second)
          << "duplicate delivery " << to_string(p.id()) << " seed " << seed;
    });
    stub.set_drop_fn([&](const Publication& p) {
      EXPECT_TRUE(dropped.insert(p.id()).second)
          << "publication dropped twice " << to_string(p.id()) << " seed "
          << seed;
    });

    std::uint32_t seq = 1;
    for (int op = 0; op < 400; ++op) {
      const int dice = static_cast<int>(rng() % 100);
      if (dice < 60) {
        const std::size_t pad = rng() % 120;
        const Publication p = sized_pub(seq++, pad);
        pushed.insert(p.id());
        stub.on_notification(p);
      } else if (dice < 70 && stub.state() == ClientState::PauseOper) {
        stub.resume();  // flushes the buffer to the application
        stub.pause();
      }
      // Invariants hold after every operation.
      ASSERT_LE(stub.buffered_count(), limits.max_count) << "seed " << seed;
      ASSERT_LE(stub.buffered_bytes(), limits.max_bytes) << "seed " << seed;
      ASSERT_EQ(delivered.size() + dropped.size() + stub.buffered_count(),
                pushed.size())
          << "conservation violated at op " << op << " seed " << seed;
    }

    // Drops and deliveries never overlap: a publication has one fate.
    for (const PublicationId& id : dropped) {
      EXPECT_EQ(delivered.count(id), 0u) << "seed " << seed;
    }
  }
}

TEST(SessionBufferProperty, OversizedSinglePublicationIsDroppedNotStuck) {
  ClientStub stub(7);
  stub.create();
  stub.start();
  stub.pause();
  stub.set_buffer_limits({0, 64});
  int drops = 0;
  stub.set_drop_fn([&](const Publication&) { ++drops; });
  // Larger than the whole byte budget: must not wedge the buffer.
  stub.on_notification(sized_pub(1, 500));
  EXPECT_EQ(stub.buffered_count(), 0u);
  EXPECT_EQ(stub.buffered_bytes(), 0u);
  EXPECT_EQ(drops, 1);
}

// Manager-level cross-check: the SessionManager's drop ledger, its stats
// and the tmps_session_dropped_total counter all agree with what the stub
// reported, publication by publication.
TEST(SessionBufferProperty, ManagerLedgerMatchesStubDropsExactly) {
  Overlay overlay = Overlay::chain(2);
  BrokerConfig bc;
  bc.session.enabled = true;
  bc.session.buffer_max_count = 5;  // tiny cap: most of the flood overflows
  SimNetwork net(overlay, bc);
  session::SessionManager& mgr = *net.sessions(1);

  net.run_on(2, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(1);
    e.advertise(1, full_space_advertisement(), out);
  });
  net.run();
  net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(100);
    e.subscribe(100, workload_filter(WorkloadKind::Covered, 1), out);
  });
  net.run();

  ASSERT_NE(mgr.open(100), session::kNoToken);
  mgr.disconnect(100);
  constexpr int kFlood = 40;
  for (std::uint32_t i = 0; i < kFlood; ++i) {
    net.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(1, make_publication({1, 10 + i}, 100, 0), out);
    });
    net.run();
  }

  const ClientStub* stub = net.engine(1).find_client(100);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->buffered_count(), 5u);
  const std::size_t expect_dropped = kFlood - 5;
  EXPECT_EQ(mgr.stats().dropped_overflow, expect_dropped);
  EXPECT_EQ(mgr.stats().dropped_expiry, 0u);
  ASSERT_EQ(mgr.drop_log().size(), expect_dropped);

  // Ledger entries are distinct publications, all tagged overflow, all for
  // this client — and the metrics counter agrees.
  std::set<PublicationId> ids;
  for (const session::DropRecord& d : mgr.drop_log()) {
    EXPECT_TRUE(ids.insert(d.pub).second) << "double-counted drop";
    EXPECT_EQ(d.client, 100u);
    EXPECT_EQ(d.reason, session::DropReason::Overflow);
  }
  obs::MetricsRegistry* mr = net.metrics();
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->counter("tmps_session_dropped_total",
                        {{"broker", "1"}, {"reason", "overflow"}})
                .value(),
            expect_dropped);

  // Oldest-first drops: the survivors are the newest five.
  std::vector<Publication> left = net.engine(1).find_client(100)->take_buffer();
  ASSERT_EQ(left.size(), 5u);
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].id(), (PublicationId{1, 10 + kFlood - 5 +
                                                  static_cast<std::uint32_t>(i)}));
  }
}

}  // namespace
}  // namespace tmps
