// Conformance to the concurrency table embedded in the paper's Fig. 4: the
// allowed combinations of coordinator state and client state at the source
// and target sites, sampled after every simulation event during commit and
// reject runs.
//
//   source:  coord init    <-> client init/created/started/pause_oper
//            coord wait    <-> client pause_move
//            coord prepare <-> client prepare_stop
//            coord abort   <-> client started
//            coord commit  <-> client clean (we dismantle the clean copy)
//   target:  coord init    <-> client init (no copy yet)
//            coord prepare <-> client created
//            coord abort   <-> client clean (copy dismantled)
//            coord commit  <-> client started
#include <gtest/gtest.h>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;

struct Rig {
  Rig() : overlay(Overlay::chain(4)), net(overlay) {
    net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 1), out);
    });
    net.run();
  }

  /// Client state of the copy hosted at broker `b` (nullopt = no copy).
  std::optional<ClientState> client_at(BrokerId b) {
    const ClientStub* stub = net.engine(b).find_client(kMover);
    if (!stub) return std::nullopt;
    return stub->state();
  }

  Overlay overlay;
  SimNetwork net;
};

void check_source_pair(const std::optional<SourceCoordState>& coord,
                       const std::optional<ClientState>& client) {
  if (!coord) {
    // No transaction record: the client is in a stationary state (or the
    // copy is gone after a previous committed move).
    if (client) {
      EXPECT_TRUE(*client == ClientState::Started ||
                  *client == ClientState::PauseOper ||
                  *client == ClientState::Created)
          << to_string(*client);
    }
    return;
  }
  switch (*coord) {
    case SourceCoordState::Init:
      break;  // transient; any pre-move client state
    case SourceCoordState::Wait:
      ASSERT_TRUE(client.has_value());
      EXPECT_EQ(*client, ClientState::PauseMove);
      break;
    case SourceCoordState::Prepare:
      ASSERT_TRUE(client.has_value());
      EXPECT_EQ(*client, ClientState::PrepareStop);
      break;
    case SourceCoordState::Abort:
      ASSERT_TRUE(client.has_value());
      EXPECT_EQ(*client, ClientState::Started);
      break;
    case SourceCoordState::Commit:
      // Fig. 4: client clean — our engine dismantles the clean copy.
      EXPECT_FALSE(client.has_value());
      break;
  }
}

void check_target_pair(const std::optional<TargetCoordState>& coord,
                       const std::optional<ClientState>& client) {
  if (!coord) {
    EXPECT_FALSE(client.has_value());
    return;
  }
  switch (*coord) {
    case TargetCoordState::Init:
      EXPECT_FALSE(client.has_value());
      break;
    case TargetCoordState::Prepare:
      ASSERT_TRUE(client.has_value());
      EXPECT_EQ(*client, ClientState::Created);
      break;
    case TargetCoordState::Abort:
      EXPECT_FALSE(client.has_value());  // clean copy dismantled
      break;
    case TargetCoordState::Commit:
      ASSERT_TRUE(client.has_value());
      EXPECT_EQ(*client, ClientState::Started);
      break;
  }
}

TEST(Fig4Conformance, CommitRunHonoursConcurrencyTable) {
  Rig r;
  Broker::Outputs out;
  const TxnId txn = r.net.engine(1).initiate_move(kMover, 4, out);
  r.net.transmit(1, std::move(out));

  check_source_pair(r.net.engine(1).source_state(txn), r.client_at(1));
  while (r.net.events().step()) {
    check_source_pair(r.net.engine(1).source_state(txn), r.client_at(1));
    check_target_pair(r.net.engine(4).target_state(txn), r.client_at(4));
  }
  EXPECT_EQ(r.net.engine(1).source_state(txn), SourceCoordState::Commit);
  EXPECT_EQ(r.net.engine(4).target_state(txn), TargetCoordState::Commit);
}

TEST(Fig4Conformance, RejectRunHonoursConcurrencyTable) {
  Rig r;
  r.net.engine(4).mutable_config().accept_clients = false;
  Broker::Outputs out;
  const TxnId txn = r.net.engine(1).initiate_move(kMover, 4, out);
  r.net.transmit(1, std::move(out));

  while (r.net.events().step()) {
    check_source_pair(r.net.engine(1).source_state(txn), r.client_at(1));
    check_target_pair(r.net.engine(4).target_state(txn), r.client_at(4));
  }
  EXPECT_EQ(r.net.engine(1).source_state(txn), SourceCoordState::Abort);
  EXPECT_EQ(r.net.engine(4).target_state(txn), TargetCoordState::Abort);
}

TEST(Fig4Conformance, RepeatedRoundTripsStayConformant) {
  Rig r;
  for (int round = 0; round < 3; ++round) {
    const BrokerId src = (round % 2 == 0) ? 1 : 4;
    const BrokerId dst = 5 - src;
    Broker::Outputs out;
    const TxnId txn = r.net.engine(src).initiate_move(kMover, dst, out);
    r.net.transmit(src, std::move(out));
    while (r.net.events().step()) {
      check_source_pair(r.net.engine(src).source_state(txn), r.client_at(src));
      check_target_pair(r.net.engine(dst).target_state(txn), r.client_at(dst));
    }
    EXPECT_EQ(r.net.engine(src).source_state(txn), SourceCoordState::Commit)
        << round;
  }
}

}  // namespace
}  // namespace tmps
