// Conformance of the movement transaction to the paper's global reachable
// state graph (Fig. 5). The DES is stepped one event at a time and the
// (source coordinator, target coordinator) pair is sampled after every step;
// the observed set must be contained in Fig. 5's reachable set and end in
// the right terminal state.
#include <gtest/gtest.h>

#include <set>

#include "core/mobility_engine.h"
#include "pubsub/workload.h"
#include "sim/network.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;

/// Global state label, e.g. "wS,iT". A coordinator with no transaction
/// record yet is in init.
std::string global_state(const MobilityEngine& src, const MobilityEngine& tgt,
                         TxnId txn) {
  const auto s = src.source_state(txn);
  const auto t = tgt.target_state(txn);
  std::string out;
  out += s ? std::string(1, to_string(*s)[0]) : "i";
  out += "S,";
  out += t ? std::string(1, to_string(*t)[0]) : "i";
  out += "T";
  return out;
}

struct Fixture {
  Fixture() : overlay(Overlay::chain(3)), net(overlay) {
    net.run_on(1, [](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover);
      e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 1), out);
    });
    net.run();
  }

  std::set<std::string> observe_move(BrokerId target) {
    net.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      txn = e.initiate_move(kMover, target, out);
    });
    std::set<std::string> seen;
    seen.insert(global_state(net.engine(1), net.engine(3), txn));
    while (net.events().step()) {
      seen.insert(global_state(net.engine(1), net.engine(3), txn));
    }
    return seen;
  }

  Overlay overlay;
  SimNetwork net;
  TxnId txn = kNoTxn;
};

// Fig. 5 reachable global states (initials of Fig. 4 coordinator states).
const std::set<std::string> kFig5States = {
    "iS,iT",  // before/at initiation
    "wS,iT",  // negotiate in flight
    "wS,pT",  // target approved
    "wS,aT",  // target rejected (abort at target side is terminal)
    "aS,aT",  // source learned of the reject
    "pS,pT",  // source prepared, state in flight
    "pS,cT",  // target committed, ack in flight
    "cS,cT",  // committed
    "aS,pT",  // source aborted while target prepared (timeout path)
};

TEST(GlobalStates, CommitPathStaysWithinFig5) {
  Fixture f;
  const auto seen = f.observe_move(3);
  for (const auto& s : seen) {
    EXPECT_TRUE(kFig5States.contains(s)) << "unexpected global state " << s;
  }
  // The commit path must actually traverse the protocol's spine.
  EXPECT_TRUE(seen.contains("wS,iT"));
  EXPECT_TRUE(seen.contains("wS,pT"));
  EXPECT_TRUE(seen.contains("pS,pT") || seen.contains("pS,cT"));
  EXPECT_TRUE(seen.contains("cS,cT"));
  // Terminal state: committed on both sides.
  EXPECT_EQ(f.net.engine(1).source_state(f.txn), SourceCoordState::Commit);
  EXPECT_EQ(f.net.engine(3).target_state(f.txn), TargetCoordState::Commit);
}

TEST(GlobalStates, RejectPathStaysWithinFig5) {
  Fixture f;
  f.net.engine(3).mutable_config().accept_clients = false;
  const auto seen = f.observe_move(3);
  for (const auto& s : seen) {
    EXPECT_TRUE(kFig5States.contains(s)) << "unexpected global state " << s;
  }
  EXPECT_TRUE(seen.contains("wS,iT"));
  EXPECT_TRUE(seen.contains("aS,iT") || seen.contains("aS,aT") ||
              seen.contains("wS,aT"))
      << "reject path must reach an abort state";
  EXPECT_EQ(f.net.engine(1).source_state(f.txn), SourceCoordState::Abort);
}

TEST(GlobalStates, AtMostOneClientStartedThroughoutCommit) {
  // Fig. 4's table: in any intermediate global state at most one client copy
  // is started; in the final state exactly one is started, the other clean.
  Fixture f;
  Broker::Outputs out;
  f.txn = f.net.engine(1).initiate_move(kMover, 3, out);
  f.net.transmit(1, std::move(out));

  auto started_copies = [&] {
    int n = 0;
    for (BrokerId b = 1; b <= 3; ++b) {
      const ClientStub* stub = f.net.engine(b).find_client(kMover);
      if (stub && stub->state() == ClientState::Started) ++n;
    }
    return n;
  };

  EXPECT_LE(started_copies(), 1);
  while (f.net.events().step()) {
    ASSERT_LE(started_copies(), 1);
  }
  EXPECT_EQ(started_copies(), 1);
  // Exactly one copy exists at all (the other was cleaned).
  int copies = 0;
  for (BrokerId b = 1; b <= 3; ++b) {
    if (f.net.engine(b).find_client(kMover)) ++copies;
  }
  EXPECT_EQ(copies, 1);
}

TEST(GlobalStates, RejectLeavesSourceStartedOnly) {
  Fixture f;
  f.net.engine(3).mutable_config().accept_clients = false;
  f.observe_move(3);
  const ClientStub* stub = f.net.engine(1).find_client(kMover);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->state(), ClientState::Started);
  EXPECT_EQ(f.net.engine(3).find_client(kMover), nullptr);
}

}  // namespace
}  // namespace tmps
